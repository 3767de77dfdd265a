package parcel

// The spawn plane's contract, tested without chaos first: exactly-once
// execution under key dedupe and retries, deadline/cancel propagation
// into the action body, orphan reaping, typed failures, and pushed
// completions under fan-out. The chaos-driven soak lives in package agas
// (it needs the router on top); the connection itself is tested in
// duplex_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel/chaos"
)

// newSpawnFixture starts a server with an action table and optional
// chaos in the dial path.
func newSpawnFixture(t *testing.T, sopts ServerOptions, cfg *chaos.Config) (*ActionMap, *core.Registry, *Server, *chaos.Injector, *Client) {
	t.Helper()
	reg := core.NewRegistry()
	srv, err := ServeOptions("127.0.0.1:0", reg, 0, sopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	actions := NewActionMap()
	srv.WithActions(actions)
	var inj *chaos.Injector
	copts := ClientOptions{Timeout: 2 * time.Second}
	if cfg != nil {
		inj = chaos.New(*cfg)
		copts.Dialer = inj.Dialer()
	}
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return actions, reg, srv, inj, cli
}

func TestSpawnJSONRoundTrip(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	if err := RegisterAction(actions, "double", func(n int) (int, error) {
		return 2 * n, nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := cli.SpawnJSON(context.Background(), "double", json.RawMessage("21"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "42" {
		t.Fatalf("result = %s", res)
	}
}

func TestSpawnDedupeByKey(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	var execs atomic.Int64
	if err := RegisterAction(actions, "count", func(struct{}) (int64, error) {
		return execs.Add(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The same key spawned repeatedly dedupes into one execution — the
	// exactly-once guarantee a non-idempotent action depends on.
	for i := 0; i < 5; i++ {
		if _, err := cli.SpawnAction(ctx, "count", nil, "same-key"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cli.WaitSpawn(ctx, "same-key")
	if err != nil || st.Err != nil {
		t.Fatal(err, st.Err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("action executed %d times, want exactly once", got)
	}
}

func TestSpawnExactlyOnceAcrossTransportRetry(t *testing.T) {
	cfg := chaos.Config{}
	actions, _, _, inj, cli := newSpawnFixture(t, ServerOptions{}, &cfg)
	var execs atomic.Int64
	if err := RegisterAction(actions, "once", func(struct{}) (int64, error) {
		return execs.Add(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	// Warm the connection so the forced drop hits the spawn exchange,
	// not the dial.
	if _, err := cli.Types(); err != nil {
		t.Fatal(err)
	}
	// Drop exactly one connection mid-exchange: the spawn op's response
	// is lost, the outcome ambiguous, and SpawnJSON must re-issue the
	// same key rather than hang or double-run.
	inj.ForceDrop(1)
	res, err := cli.SpawnJSON(context.Background(), "once", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1" {
		t.Fatalf("result = %s", res)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("action executed %d times across retry, want exactly once", got)
	}
	if fc := cli.FaultCounts(); fc.Retries < 1 {
		t.Fatalf("fault counters = %+v, want ≥1 retry recorded", fc)
	}
}

func TestSpawnDeadlinePropagatesToActionBody(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	bodySawCancel := make(chan struct{})
	if err := RegisterActionCtx(actions, "stall", func(ctx context.Context, _ struct{}) (int, error) {
		<-ctx.Done() // cooperative: run until the shipped budget lapses
		close(bodySawCancel)
		return 0, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	const budget = 250 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err := cli.SpawnJSON(ctx, "stall", nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("deadline-bounded stalling spawn returned nil error")
	}
	// Either shape is a correct bound: the remote side cancelling the
	// body on the shipped budget, or the local ctx lapsing mid-wait.
	if !errors.Is(err, ErrSpawnCancelled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v", err)
	}
	if elapsed > budget+time.Second {
		t.Fatalf("spawn resolved after %v, want ≈%v", elapsed, budget)
	}
	select {
	case <-bodySawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("action body never observed the propagated deadline")
	}
}

func TestSpawnClientCancelReachesServer(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	bodySawCancel := make(chan struct{})
	if err := RegisterActionCtx(actions, "stall", func(ctx context.Context, _ struct{}) (int, error) {
		<-ctx.Done()
		close(bodySawCancel)
		return 0, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.SpawnJSON(ctx, "stall", nil)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled spawn never resolved locally")
	}
	// The local cancel ships a best-effort spawn_cancel op; the remote
	// body must actually stop.
	select {
	case <-bodySawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("remote action body kept running after client cancel")
	}
}

func TestSpawnOrphanReaped(t *testing.T) {
	sopts := ServerOptions{SpawnLease: 80 * time.Millisecond}
	actions, reg, _, _, cli := newSpawnFixture(t, sopts, nil)
	bodySawCancel := make(chan struct{})
	if err := RegisterActionCtx(actions, "stall", func(ctx context.Context, _ struct{}) (int, error) {
		<-ctx.Done()
		close(bodySawCancel)
		return 0, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	// Spawn, then never wait: no heartbeat, the client "died". Past the lease
	// the reaper must cancel the body and count the orphan.
	if _, err := cli.SpawnAction(context.Background(), "stall", nil, "abandoned"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bodySawCancel:
	case <-time.After(3 * time.Second):
		t.Fatal("orphaned action body was never reaped")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := reg.Evaluate("/runtime{locality#0/total}/remote/count/orphaned", false)
		if err != nil {
			t.Fatal(err)
		}
		if v.Raw == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned counter = %d, want 1", v.Raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The orphaned entry resolves cancelled for a client that comes
	// back asking.
	st, err := cli.WaitSpawn(context.Background(), "abandoned")
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(st.Err, ErrSpawnCancelled) {
		t.Fatalf("orphaned spawn status = %v, want ErrSpawnCancelled", st.Err)
	}
}

func TestSpawnTypedFailures(t *testing.T) {
	// Completed entries stay in the table for the retention window (a
	// retried key must find them), so the limit covers the two failed
	// spawns below plus the stalling occupant.
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{MaxSpawnTasks: 3}, nil)
	if err := RegisterAction(actions, "fail", func(struct{}) (int, error) {
		return 0, fmt.Errorf("deliberate failure")
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterActionCtx(actions, "stall", func(ctx context.Context, _ struct{}) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAction(actions, "boom", func(struct{}) (int, error) {
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Unknown action: typed, and provably not executing.
	_, err := cli.SpawnJSON(ctx, "nope", nil)
	if !errors.Is(err, ErrActionUnknown) {
		t.Fatalf("unknown action error = %v", err)
	}

	// Action-returned error: *ActionError, transport fine.
	_, err = cli.SpawnJSON(ctx, "fail", nil)
	var ae *ActionError
	if !errors.As(err, &ae) || ae.Panic || ae.Action != "fail" {
		t.Fatalf("action error = %v", err)
	}

	// Panicking body: isolated into *ActionError{Panic} — the server
	// survives (later requests on this same fixture prove it).
	_, err = cli.SpawnJSON(ctx, "boom", nil)
	if !errors.As(err, &ae) || !ae.Panic {
		t.Fatalf("panic error = %v", err)
	}

	// Table full: the single slot is occupied by a stalling spawn, the
	// next key is refused typed.
	if _, err := cli.SpawnAction(ctx, "stall", nil, "occupant"); err != nil {
		t.Fatal(err)
	}
	st, err := cli.SpawnAction(ctx, "stall", nil, "overflow")
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(st.Err, ErrSpawnLimit) {
		t.Fatalf("overflow status = %v, want ErrSpawnLimit", st.Err)
	}
	if err := cli.CancelSpawn(ctx, "occupant"); err != nil {
		t.Fatal(err)
	}

	// Waiting on a key the server never admitted: typed ErrSpawnUnknown.
	if st, err := cli.WaitSpawn(ctx, "never-was"); err != nil || !st.Done || !errors.Is(st.Err, ErrSpawnUnknown) {
		t.Fatalf("unknown key status = %+v, %v", st, err)
	}
}

func TestSpawnFanOutMultiplexed(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	if err := RegisterAction(actions, "square", func(n int) (int, error) {
		time.Sleep(time.Duration(n%7) * time.Millisecond)
		return n * n, nil
	}); err != nil {
		t.Fatal(err)
	}
	// 200 concurrent futures share ONE connection, each a spawn frame out
	// and, since most bodies sleep past their answer, an acknowledgement
	// and a pushed completion back.
	const fan = 200
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	futs := make([]*RemoteFuture[int], fan)
	for i := range futs {
		futs[i] = SpawnOn[int, int](ctx, cli, "square", i)
	}
	for i, f := range futs {
		v, err := f.GetContext(ctx)
		if err != nil || v != i*i {
			t.Fatalf("square(%d) = %d, %v", i, v, err)
		}
	}
}

// TestFastSpawnAnswersInOneFrame: a body that ends before its spawn is
// answered rides in the answer, so a serial echo costs the server one
// frame, not an acknowledgement and a push. A body still blocked when
// the answer is built is answered running, and its completion pushed.
func TestFastSpawnAnswersInOneFrame(t *testing.T) {
	sreg, creg := core.NewRegistry(), core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", sreg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	actions := NewActionMap()
	srv.WithActions(actions)
	release := make(chan struct{})
	if err := RegisterAction(actions, "echo", func(n int) (int, error) { return n, nil }); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAction(actions, "gated", func(n int) (int, error) {
		<-release
		return n + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := DialContext(context.Background(), srv.Addr(), creg, 1, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	read := func(reg *core.Registry, locality int, counter string) int64 {
		v, err := reg.Evaluate(fmt.Sprintf("/parcels{locality#%d/total}/%s", locality, counter), false)
		if err != nil {
			t.Fatal(err)
		}
		return v.Raw
	}
	// atRest is the server's sent count once the client has received
	// every frame it sent, twice in a row.
	atRest := func() int64 {
		last := int64(-1)
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			ss := read(sreg, 0, "count/sent")
			if ss == read(creg, 1, "count/received") && ss == last {
				return ss
			}
			last = ss
		}
		t.Fatal("the connection never came to rest")
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cli.SpawnJSON(ctx, "echo", json.RawMessage("0")); err != nil {
		t.Fatal(err)
	}
	const spawns = 200
	sent0 := atRest()
	for i := 1; i <= spawns; i++ {
		res, err := cli.SpawnJSON(ctx, "echo", json.RawMessage(fmt.Sprint(i)))
		if err != nil || string(res) != fmt.Sprint(i) {
			t.Fatalf("echo(%d) = %s, %v", i, res, err)
		}
	}
	// Whether a body ends in its one yield is up to the scheduler: on two
	// idle CPUs 150 runs read 1.015–1.17 (median 1.085), busier CPUs
	// merge more; the race detector slows bodies past the yield (1.3–1.8).
	per := float64(atRest()-sent0) / spawns
	t.Logf("server frames per echo spawn: %.3f", per)
	if per > 1.25 && !raceEnabled {
		t.Fatalf("server sent %.2f frames per echo spawn, want ≤ 1.25 (2 when every completion is pushed)", per)
	}

	// The body cannot end before the answer: the gate opens only after
	// SpawnAction returns. A server that waited for the body would time
	// the spawn out here.
	st, err := cli.SpawnAction(ctx, "gated", json.RawMessage("41"), "gated")
	if err != nil || st.Done {
		t.Fatalf("gated spawn = %+v, %v; want a running answer", st, err)
	}
	close(release)
	if st, err = cli.WaitSpawn(ctx, "gated"); err != nil || st.Err != nil || string(st.Result) != "42" {
		t.Fatalf("gated completion = %+v, %v", st, err)
	}
}

// TestSpawnAnswerRacesPush: two clients spawn the same keys at once, so
// each key's fresh answer, its dedupe answer on the other connection and
// its completion push race. Each body runs once, every waiter on both
// clients hears its result, and neither client keeps a key tracked.
func TestSpawnAnswerRacesPush(t *testing.T) {
	actions, _, srv, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	cli2, err := DialContext(context.Background(), srv.Addr(), nil, 2, ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	const keys = 300
	var runs [keys]atomic.Int32
	if err := RegisterAction(actions, "mixed", func(n int) (int, error) {
		runs[n].Add(1)
		switch n % 3 {
		case 1: // blocks: parks past its answer, or not
			time.Sleep(time.Duration(n%101) * time.Microsecond)
		case 2: // runs on: may still be running when the answer is built
			for begin := time.Now(); time.Since(begin) < time.Duration(n%7)*time.Microsecond; {
			}
		}
		return 2*n + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	spawn := func(c *Client, n int) error {
		key := fmt.Sprintf("race-%d", n)
		st, err := c.SpawnAction(ctx, "mixed", json.RawMessage(fmt.Sprint(n)), key)
		if err == nil && !st.Done {
			st, err = c.WaitSpawn(ctx, key)
		}
		switch {
		case err != nil:
			return fmt.Errorf("%s: %w", key, err)
		case st.Err != nil || string(st.Result) != fmt.Sprint(2*n+1):
			return fmt.Errorf("%s = %s, %v; want %d", key, st.Result, st.Err, 2*n+1)
		}
		return nil
	}
	const workers = 8
	errs := make(chan error, 2*keys)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Both clients spawn key n together, so they meet on it.
			for n := w; n < keys; n += workers {
				var pair sync.WaitGroup
				for _, c := range []*Client{cli, cli2} {
					pair.Add(1)
					go func(c *Client) {
						defer pair.Done()
						if err := spawn(c, n); err != nil {
							errs <- err
						}
					}(c)
				}
				pair.Wait()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if failed := len(errs); failed > 0 {
		t.Errorf("%d of %d spawns failed; first: %v", failed, 2*keys, <-errs)
	}
	var wrong []string
	for n := range runs {
		if got := runs[n].Load(); got != 1 {
			wrong = append(wrong, fmt.Sprintf("race-%d ran %d times", n, got))
		}
	}
	if len(wrong) > 0 {
		t.Errorf("%d keys did not run exactly once: %v", len(wrong), wrong[:min(len(wrong), 5)])
	}
	for i, c := range []*Client{cli, cli2} {
		c.spawns.mu.Lock()
		if left := len(c.spawns.entries); left != 0 {
			t.Errorf("client %d still tracks %d spawns after every wait returned", i+1, left)
		}
		c.spawns.mu.Unlock()
	}
}

func TestSpawnGetContextBoundsAbandonedWait(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	if err := RegisterActionCtx(actions, "stall", func(ctx context.Context, _ struct{}) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	f := SpawnOn[struct{}, int](context.Background(), cli, "stall", struct{}{})
	wctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := f.GetContext(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned wait = %v, want context.DeadlineExceeded", err)
	}
	if f.Ready() {
		t.Fatal("future resolved by an abandoned wait")
	}
}

// TestSpawnWaitChannelOnDemand: a spawn whose answer says done is
// opened and forgotten without a wait channel, so on a warmed table
// open+forget allocates the entry alone; a done pushed before WaitSpawn
// makes the channel, is kept in it, and reaches the wait.
func TestSpawnWaitChannelOnDemand(t *testing.T) {
	tbl := &spawnWaits{entries: map[string]*spawnEntry{}}
	cycle := func() { tbl.open("k"); tbl.forget("k") }
	cycle()
	if raceEnabled {
		t.Log("allocation count not held: the race detector instruments allocations")
	} else if n := testing.AllocsPerRun(1000, cycle); n > 1 {
		t.Errorf("open+forget allocates %.0f objects, want 1 (the entry; no wait channel)", n)
	}
	tbl.open("k")
	if tbl.entries["k"].ch != nil {
		t.Error("open made a wait channel")
	}

	_, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	cli.spawns.open("early")
	cli.spawns.complete(spawnState{Key: "early", State: spawnDone, Result: json.RawMessage("7")})
	sent := cli.meters.sent.Load()
	if st, err := cli.WaitSpawn(context.Background(), "early"); err != nil || !st.Done || st.Err != nil || string(st.Result) != "7" {
		t.Fatalf("wait on a done pushed first = %+v, %v", st, err)
	}
	if got := cli.meters.sent.Load() - sent; got != 0 {
		t.Errorf("waiting on a kept completion sent %d frames, want 0", got)
	}
}
