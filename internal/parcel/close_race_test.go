package parcel

// The Server.Close contract under concurrency: Close must return even
// with idle or mid-request connections open (it force-closes them), a
// handler accepted concurrently with Close must never leak past
// wg.Wait, and double Close is safe. Client.Close likewise waits for
// nothing in flight and leaves no goroutine behind. Run in CI under
// -race.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func closeWithin(t *testing.T, srv *Server, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Server.Close did not return — leaked handler or wedged accept loop")
	}
}

// TestServeDialCloseCycle cycles Serve/Dial/Close with a concurrent
// in-flight request, 100 times; any handler leaked past wg.Wait or
// unsynchronised accept/close ordering shows up under -race or as a
// hang.
func TestServeDialCloseCycle(t *testing.T) {
	name := "/threads{locality#0/total}/count/cumulative"
	for i := 0; i < 100; i++ {
		reg := core.NewRegistry()
		c := core.NewRawCounter(
			core.Name{Object: "threads", Counter: "count/cumulative"}.
				WithInstances(core.LocalityInstance(0, "total", -1)...),
			core.Info{TypeName: "/threads/count/cumulative"})
		reg.MustRegister(c)
		srv, err := Serve("127.0.0.1:0", reg, 0)
		if err != nil {
			t.Fatalf("cycle %d Serve: %v", i, err)
		}
		cli, err := DialContext(context.Background(), srv.Addr(), nil, 1,
			ClientOptions{Timeout: 2 * time.Second, Retries: -1, BreakerThreshold: -1})
		if err != nil {
			t.Fatalf("cycle %d Dial: %v", i, err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Races the Close below: success and failure are both fine,
			// hanging or a race report is not.
			cli.Evaluate(name, false)
		}()
		closeWithin(t, srv, 5*time.Second)
		wg.Wait()
		cli.Close()
	}
}

// TestCloseWithIdleConnection: an idle client holds its connection
// open; Close must not wait for the peer to go away.
func TestCloseWithIdleConnection(t *testing.T) {
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Establish the server-side handler by exchanging one parcel.
	if _, err := cli.Types(); err != nil {
		t.Fatal(err)
	}
	closeWithin(t, srv, 2*time.Second)
}

// TestDoubleClose: Close twice (including concurrently) is safe.
func TestDoubleClose(t *testing.T) {
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	wg.Wait()
	closeWithin(t, srv, time.Second)
}

// TestDialAfterClose: connections racing into a closing server are
// refused or dropped, never serviced by a leaked handler.
func TestDialAfterClose(t *testing.T) {
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	closeWithin(t, srv, time.Second)
	cli, err := DialContext(context.Background(), addr, nil, 1,
		ClientOptions{Timeout: 300 * time.Millisecond, Retries: -1, BreakerThreshold: -1})
	if err != nil {
		return // refused outright: fine
	}
	defer cli.Close()
	if _, err := cli.Types(); err == nil {
		t.Fatal("request serviced by a closed server")
	}
}

// clientGoroutines returns the stacks of the process if a Client reader
// or heartbeat goroutine is still alive in it. Close waits for them to
// signal their exit, so one may be caught in its last instructions: only
// a goroutine that stays counts.
func clientGoroutines() (stacks string) {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		stacks = string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*Client).read") && !strings.Contains(stacks, "(*Client).heartbeat") {
			return ""
		}
		if time.Now().After(deadline) {
			return stacks
		}
	}
}

// TestClientCloseWithPendingWait: a wait parked on a 10 s body is no
// reason for Close to wait — it closes the socket first, the future
// resolves ErrClientClosed, and the reader and heartbeat are gone when
// it returns.
func TestClientCloseWithPendingWait(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	started := make(chan struct{})
	if err := RegisterActionCtx(actions, "timer", func(ctx context.Context, d time.Duration) (int, error) {
		close(started)
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
		return 0, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	f := SpawnOn[time.Duration, int](context.Background(), cli, "timer", 10*time.Second)
	<-started
	begin := time.Now()
	cli.Close()
	if d := time.Since(begin); d > 50*time.Millisecond {
		t.Fatalf("Close took %v with a 10 s spawn pending, want < 50 ms", d)
	}
	if stacks := clientGoroutines(); stacks != "" {
		t.Fatalf("a client goroutine outlived Close:\n%s", stacks)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := f.GetContext(ctx); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("pending future = %v, want ErrClientClosed", err)
	}
	if _, err := cli.Types(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close = %v, want ErrClientClosed", err)
	}
}

// TestClientCloseFailsInFlightCalls: calls waiting on a server that never
// answers resolve ErrClientClosed when the client closes, at once.
func TestClientCloseFailsInFlightCalls(t *testing.T) {
	addr := scriptedServer(t, func(_ int, conn net.Conn, rd *bufio.Reader) {
		if req, err := readRequest(rd); err == nil {
			answer(conn, req.ID, req.Names...) // the warm-up; silence after
		}
		for {
			if _, err := rd.ReadBytes('\n'); err != nil {
				return
			}
		}
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warmUp(t, cli)
	const calls = 4
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := cli.Types()
			errs <- err
		}()
	}
	awaitSent(cli, 1+calls)
	begin := time.Now()
	cli.Close()
	for i := 0; i < calls; i++ {
		if err := <-errs; !errors.Is(err, ErrClientClosed) {
			t.Fatalf("in-flight call = %v, want ErrClientClosed", err)
		}
	}
	if d := time.Since(begin); d > 50*time.Millisecond {
		t.Fatalf("in-flight calls took %v to fail after Close", d)
	}
	if stacks := clientGoroutines(); stacks != "" {
		t.Fatalf("a client goroutine outlived Close:\n%s", stacks)
	}
}
