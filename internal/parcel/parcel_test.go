package parcel

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// newServerFixture starts a server over a registry holding one raw
// counter and returns both plus a connected client.
func newServerFixture(t *testing.T) (*core.Registry, *core.RawCounter, *Server, *Client) {
	t.Helper()
	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative", HelpText: "tasks"})
	reg.MustRegister(c)
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr(), nil, 1)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return reg, c, srv, cli
}

func TestRemoteEvaluate(t *testing.T) {
	_, c, _, cli := newServerFixture(t)
	c.Add(123)
	v, err := cli.Evaluate("/threads{locality#0/total}/count/cumulative", false)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if v.Raw != 123 {
		t.Fatalf("remote value = %+v", v)
	}
	// Evaluate-and-reset works across the wire.
	if _, err := cli.Evaluate("/threads{locality#0/total}/count/cumulative", true); err != nil {
		t.Fatal(err)
	}
	if c.Load() != 0 {
		t.Fatal("remote reset did not apply")
	}
}

func TestRemoteEvaluateError(t *testing.T) {
	_, _, _, cli := newServerFixture(t)
	if _, err := cli.Evaluate("/nosuch{locality#0/total}/counter", false); err == nil {
		t.Fatal("unknown counter did not error")
	}
	if _, err := cli.Evaluate("garbage", false); err == nil {
		t.Fatal("garbage name did not error")
	}
}

func TestRemoteDiscoverAndTypes(t *testing.T) {
	_, _, _, cli := newServerFixture(t)
	names, err := cli.Discover("/threads/count/cumulative")
	if err != nil || len(names) != 1 {
		t.Fatalf("Discover = %v, %v", names, err)
	}
	infos, err := cli.Types()
	if err != nil {
		t.Fatalf("Types: %v", err)
	}
	found := false
	for _, i := range infos {
		if i.TypeName == "/threads/count/cumulative" {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter type missing from %d remote types", len(infos))
	}
}

func TestParcelCountersOnServer(t *testing.T) {
	reg, _, _, cli := newServerFixture(t)
	// Two exchanges: the handler books a response's bytes after flushing
	// it, so only the second request's arrival orders the first
	// response's accounting before the reads below.
	for i := 0; i < 2; i++ {
		if _, err := cli.Types(); err != nil { // generate some traffic
			t.Fatal(err)
		}
	}
	recv, err := reg.Evaluate("/parcels{locality#0/total}/count/received", false)
	if err != nil {
		t.Fatalf("parcel counter: %v", err)
	}
	if recv.Raw == 0 {
		t.Fatal("server received-parcel counter is zero")
	}
	data, _ := reg.Evaluate("/parcels{locality#0/total}/data/sent", false)
	if data.Raw == 0 {
		t.Fatal("server data/sent counter is zero")
	}
}

func TestRemoteCounterProxy(t *testing.T) {
	_, c, _, cli := newServerFixture(t)
	c.Add(55)
	rc, err := NewRemoteCounter(cli, "/threads{locality#0/total}/count/cumulative")
	if err != nil {
		t.Fatalf("NewRemoteCounter: %v", err)
	}
	if got := rc.Value(false); got.Raw != 55 {
		t.Fatalf("proxy value = %+v", got)
	}
	if rc.Info().TypeName != "/threads/count/cumulative" {
		t.Fatalf("proxy info = %+v", rc.Info())
	}
	// A proxy is a core.Counter: meta counters can consume it. Register
	// it into a local registry and read it through /statistics.
	local := core.NewRegistry()
	local.MustRegister(rc)
	sc, err := local.Get("/statistics{/threads{locality#0/total}/count/cumulative}/max@100")
	if err != nil {
		t.Fatalf("statistics over proxy: %v", err)
	}
	sc.(*core.StatisticsCounter).Sample()
	if got := sc.Value(false).Float64(); got != 55 {
		t.Fatalf("statistics over remote = %v", got)
	}
	rc.Reset()
	if c.Load() != 0 {
		t.Fatal("proxy Reset did not reach the server")
	}
	if _, err := NewRemoteCounter(cli, "garbage"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, c, srv, _ := newServerFixture(t)
	c.Add(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(srv.Addr(), nil, 2)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer cli.Close()
			for j := 0; j < 20; j++ {
				if _, err := cli.Evaluate("/threads{locality#0/total}/count/cumulative", false); err != nil {
					t.Errorf("Evaluate: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestUnknownOp: an op outside the table — never-existed or retired —
// is answered with a plain ServerError on a connection that stays up.
func TestUnknownOp(t *testing.T) {
	_, _, _, cli := newServerFixture(t)
	for _, op := range []string{"bogus", "", "invoke"} {
		_, err := cli.roundTripContext(context.Background(), request{Op: op})
		var se *ServerError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "unknown op") {
			t.Fatalf("op %q: err = %v, want ServerError \"unknown op\"", op, err)
		}
	}
	if _, err := cli.Types(); err != nil {
		t.Fatalf("connection dead after unknown ops: %v", err)
	}
}
