package parcel

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fibArg/fibRes exercise typed action marshalling.
type fibArg struct {
	N int `json:"n"`
}
type fibRes struct {
	Value int64 `json:"value"`
}

func fibPlain(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibPlain(n-1) + fibPlain(n-2)
}

func newActionFixture(t *testing.T) (*ActionMap, *Client) {
	t.Helper()
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	actions := NewActionMap()
	srv.WithActions(actions)
	cli, err := Dial(srv.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return actions, cli
}

// spawnGet runs one action through SpawnOn and waits for it under a
// test-wide deadline.
func spawnGet[A, R any](cli *Client, action string, arg A) (R, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return SpawnOn[A, R](ctx, cli, action, arg).GetContext(ctx)
}

func TestSpawnOnTypedAction(t *testing.T) {
	actions, cli := newActionFixture(t)
	err := RegisterAction(actions, "fib", func(a fibArg) (fibRes, error) {
		return fibRes{Value: fibPlain(a.N)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := spawnGet[fibArg, fibRes](cli, "fib", fibArg{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 6765 {
		t.Fatalf("remote fib(20) = %d", res.Value)
	}
}

func TestSpawnOnFuture(t *testing.T) {
	actions, cli := newActionFixture(t)
	if err := RegisterAction(actions, "square", func(n int) (int, error) {
		return n * n, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fs := make([]*RemoteFuture[int], 8)
	for i := range fs {
		fs[i] = SpawnOn[int, int](ctx, cli, "square", i)
	}
	for i, f := range fs {
		v, err := f.Get()
		if err != nil || v != i*i {
			t.Fatalf("square(%d) = %d, %v", i, v, err)
		}
		if !f.Ready() || f.Err() != nil {
			t.Fatalf("after Get: Ready = %v, Err = %v", f.Ready(), f.Err())
		}
	}
}

func TestSpawnOnErrors(t *testing.T) {
	actions, cli := newActionFixture(t)
	if err := RegisterAction(actions, "fail", func(struct{}) (int, error) {
		return 0, fmt.Errorf("deliberate failure")
	}); err != nil {
		t.Fatal(err)
	}
	var ae *ActionError
	if _, err := spawnGet[struct{}, int](cli, "fail", struct{}{}); !errors.As(err, &ae) ||
		ae.Action != "fail" || !strings.Contains(ae.Msg, "deliberate failure") {
		t.Fatalf("action error not propagated typed: %v", err)
	}
	if _, err := spawnGet[any, int](cli, "nope", nil); !errors.Is(err, ErrActionUnknown) ||
		!strings.Contains(err.Error(), "unknown action") {
		t.Fatalf("unknown action: %v", err)
	}
	// Malformed argument JSON reaches the decoder as a type error,
	// reported by the action wrapper like any other action failure.
	if _, err := spawnGet[string, int](cli, "fail", "not-a-struct"); !errors.As(err, &ae) ||
		!strings.Contains(ae.Msg, "argument") {
		t.Fatalf("type-mismatched argument: %v", err)
	}
	// An argument Go cannot marshal fails before anything is sent.
	sent := cli.meters.sent.Load()
	if _, err := spawnGet[chan int, int](cli, "fail", nil); err == nil ||
		!strings.Contains(err.Error(), "argument marshal") || cli.meters.sent.Load() != sent {
		t.Fatalf("unmarshalable argument: %v (parcels sent %d -> %d)", err, sent, cli.meters.sent.Load())
	}
	// Each class is counted on the client's own meters.
	if u, e := cli.meters.actionUnknown.Load(), cli.meters.actionErrors.Load(); u != 1 || e != 2 {
		t.Fatalf("action-unknown = %d, action-errors = %d, want 1 and 2", u, e)
	}
}

func TestSpawnWithoutActionTable(t *testing.T) {
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.SpawnJSON(context.Background(), "anything", nil); !errors.Is(err, ErrActionUnknown) ||
		!strings.Contains(err.Error(), "no actions") {
		t.Fatalf("spawn on action-less server: %v", err)
	}
}

func TestActionRegistration(t *testing.T) {
	m := NewActionMap()
	returning := func(v int) ActionCtxFunc {
		return func(context.Context, json.RawMessage) (any, error) { return v, nil }
	}
	if err := m.RegisterCtx("", returning(0)); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := m.RegisterCtx("x", nil); err == nil {
		t.Fatal("nil function accepted")
	}
	if err := m.RegisterCtx("x", returning(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterCtx("x", returning(2)); err == nil {
		t.Fatal("duplicate accepted")
	}
	if len(m.actions) != 1 || m.lookup("x") == nil || m.lookup("y") != nil {
		t.Fatalf("action table = %v", m.actions)
	}
	// The first registration is the one that stays.
	if v, _ := m.lookup("x")(context.Background(), nil); v != 1 {
		t.Fatalf("x returns %v after a refused duplicate, want 1", v)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	actions, cli := newActionFixture(t)
	if err := RegisterAction(actions, "echo", func(s string) (string, error) {
		return s, nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			if got, err := spawnGet[string, string](cli, "echo", want); err != nil || got != want {
				t.Errorf("echo: %q, %v", got, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestServerSurvivesGarbage(t *testing.T) {
	// A malformed request line yields an error response, not a dead
	// server.
	_, cli := newActionFixture(t)
	conn, err := net.Dial("tcp", cli.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	exchange := func(frame string) string {
		t.Helper()
		if _, err := conn.Write([]byte(frame)); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	if line := exchange("this is not json\n"); !strings.Contains(line, "malformed") || strings.Contains(line, `"id"`) {
		t.Fatalf("garbage handling: %q, want an id-less malformed-request error", line)
	}
	// The connection keeps working, and answers under the request's id.
	if line := exchange(`{"id":7,"op":"types"}` + "\n"); !strings.Contains(line, `"id":7`) || strings.Contains(line, `"error":`) {
		t.Fatalf("connection dead after garbage: %q", line)
	}
}
