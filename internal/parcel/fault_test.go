package parcel

// Chaos-driven tests of the fault-tolerance layer: every fault class
// the chaos injector can produce (delay past the deadline, mid-frame
// connection drop, corrupted JSON, partition) against the client's
// deadline / retry / breaker / stale-serving machinery. All run under
// -race in CI.

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel/chaos"
)

const faultCounterName = "/threads{locality#0/total}/count/cumulative"

// newFaultFixture starts a real server and connects a client through a
// chaos injector.
func newFaultFixture(t *testing.T, cfg chaos.Config, opts ClientOptions) (*core.RawCounter, *Server, *chaos.Injector, *Client) {
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
	inj := chaos.New(cfg)
	opts.Dialer = inj.Dialer()
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, opts)
	if err != nil {
		t.Fatalf("DialContext: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return c, srv, inj, cli
}

// TestDeadlineAgainstSilentServer is the acceptance criterion: a server
// that accepts but never responds must yield context.DeadlineExceeded
// within deadline + 100ms — no remote call can block past its deadline.
func TestDeadlineAgainstSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow requests, never answer.
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	cli, err := DialContext(context.Background(), ln.Addr().String(), nil, 0,
		ClientOptions{Timeout: 10 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = cli.EvaluateContext(ctx, faultCounterName, false)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > deadline+100*time.Millisecond {
		t.Fatalf("call blocked %v, want ≤ deadline+100ms", elapsed)
	}
	if fc := cli.FaultCounts(); fc.Timeouts != 1 || fc.Errors != 1 {
		t.Fatalf("fault counters = %+v, want 1 timeout / 1 error", fc)
	}
}

// TestFaultClasses is the satellite's table: one injected fault class
// per row, asserting the client recovers and its retry/timeout/error
// counters match the injected fault counts exactly.
func TestFaultClasses(t *testing.T) {
	const timeout = 150 * time.Millisecond
	rows := []struct {
		name    string
		inject  func(*chaos.Injector)
		want    FaultCounts
		wantInj func(chaos.Stats) int64 // injected-fault count to cross-check
	}{
		{
			name:    "connection drop",
			inject:  func(in *chaos.Injector) { in.ForceDrop(1) },
			want:    FaultCounts{Errors: 1, Retries: 1, Timeouts: 0},
			wantInj: func(s chaos.Stats) int64 { return s.Drops },
		},
		{
			name:    "mid-frame truncation",
			inject:  func(in *chaos.Injector) { in.ForceTruncate(1) },
			want:    FaultCounts{Errors: 1, Retries: 1, Timeouts: 0},
			wantInj: func(s chaos.Stats) int64 { return s.Truncates },
		},
		{
			name:    "delay past deadline",
			inject:  func(in *chaos.Injector) { in.ForceDelay(1) },
			want:    FaultCounts{Errors: 1, Retries: 1, Timeouts: 1},
			wantInj: func(s chaos.Stats) int64 { return s.Delays },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			counter, _, inj, cli := newFaultFixture(t,
				chaos.Config{Delay: 4 * timeout},
				ClientOptions{Timeout: timeout, Retries: 2, BackoffBase: 5 * time.Millisecond, BackoffCap: 10 * time.Millisecond})
			counter.Add(77)
			// Clean exchange first, so the fault hits an established
			// connection, not the initial dial.
			if _, err := cli.Evaluate(faultCounterName, false); err != nil {
				t.Fatalf("pre-fault evaluate: %v", err)
			}
			row.inject(inj)
			v, err := cli.Evaluate(faultCounterName, false)
			if err != nil || v.Raw != 77 {
				t.Fatalf("post-fault evaluate = %+v, %v; want recovery via retry", v, err)
			}
			if fc := cli.FaultCounts(); fc != row.want {
				t.Fatalf("fault counters = %+v, want %+v", fc, row.want)
			}
			if got := row.wantInj(inj.Stats()); got != 1 {
				t.Fatalf("injector reports %d faults of this class, want 1", got)
			}
		})
	}
}

// TestCorruptedRequestIsServerErrorNotRetried: a corrupted frame still
// reaches the server, which answers with a typed protocol error. That
// is an application-level failure — the transport is healthy — so it
// must not be retried, must not trip the breaker, and must not kill the
// server's connection handler.
func TestCorruptedRequestIsServerErrorNotRetried(t *testing.T) {
	counter, _, inj, cli := newFaultFixture(t, chaos.Config{},
		ClientOptions{Timeout: time.Second, Retries: 3})
	counter.Add(5)
	inj.ForceCorrupt(1)
	_, err := cli.Evaluate(faultCounterName, false)
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("corrupted request error = %v, want ServerError about malformed input", err)
	}
	if fc := cli.FaultCounts(); fc != (FaultCounts{}) {
		t.Fatalf("server-reported error moved transport fault counters: %+v", fc)
	}
	if st := cli.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker state = %v after server error, want closed", st)
	}
	// Same connection, next request: the handler survived the garbage.
	if v, err := cli.Evaluate(faultCounterName, false); err != nil || v.Raw != 5 {
		t.Fatalf("evaluate after corruption = %+v, %v", v, err)
	}
}

// TestStaleServingDuringPartition: with ServeStale, a partitioned
// endpoint yields the last-known value tagged StatusStale with its
// original capture time, and fresh values resume after the heal.
func TestStaleServingDuringPartition(t *testing.T) {
	counter, _, inj, cli := newFaultFixture(t, chaos.Config{},
		ClientOptions{Timeout: 200 * time.Millisecond, Retries: 1,
			BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
			BreakerThreshold: -1, ServeStale: true})
	counter.Add(42)
	fresh, err := cli.Evaluate(faultCounterName, false)
	if err != nil || fresh.Raw != 42 {
		t.Fatalf("fresh evaluate = %+v, %v", fresh, err)
	}

	inj.Partition(true)
	counter.Add(1) // the remote moves on; our cache cannot see it
	stale, err := cli.Evaluate(faultCounterName, false)
	if err != nil {
		t.Fatalf("stale serving returned error: %v", err)
	}
	if stale.Status != core.StatusStale || !stale.Stale() || stale.Raw != 42 {
		t.Fatalf("stale value = %+v, want cached 42 tagged stale", stale)
	}
	if !stale.Time.Equal(fresh.Time) {
		t.Fatalf("stale value lost its capture time: %v vs %v", stale.Time, fresh.Time)
	}
	if age := stale.Age(time.Now()); age <= 0 {
		t.Fatalf("stale age = %v, want positive", age)
	}

	// A counter never successfully read has no cache entry: explicit gap.
	if _, err := cli.Evaluate("/threads{locality#0/total}/count/nonexistent", false); err == nil {
		t.Fatal("uncached counter served during partition")
	}

	inj.Partition(false)
	healed, err := cli.Evaluate(faultCounterName, false)
	if err != nil || healed.Raw != 43 || healed.Status == core.StatusStale {
		t.Fatalf("post-heal evaluate = %+v, %v; want fresh 43", healed, err)
	}
}

// TestBreakerTransitions drives the circuit breaker through
// closed → open → fast-fail → half-open probe → closed.
func TestBreakerTransitions(t *testing.T) {
	reg := core.NewRegistry() // monitor-side registry: watch the watcher
	const cooldown = 150 * time.Millisecond
	counter, _, inj, cli := func() (*core.RawCounter, *Server, *chaos.Injector, *Client) {
		t.Helper()
		serverReg := core.NewRegistry()
		c := core.NewRawCounter(
			core.Name{Object: "threads", Counter: "count/cumulative"}.
				WithInstances(core.LocalityInstance(0, "total", -1)...),
			core.Info{TypeName: "/threads/count/cumulative"})
		serverReg.MustRegister(c)
		srv, err := Serve("127.0.0.1:0", serverReg, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		inj := chaos.New(chaos.Config{})
		cli, err := DialContext(context.Background(), srv.Addr(), reg, 1, ClientOptions{
			Timeout: 200 * time.Millisecond, Retries: -1,
			BreakerThreshold: 2, BreakerCooldown: cooldown,
			Dialer: inj.Dialer(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return c, srv, inj, cli
	}()
	counter.Add(9)

	breakerGauge := func() int64 {
		v, err := reg.Evaluate("/parcels{locality#1/total}/breaker/state", false)
		if err != nil {
			t.Fatalf("breaker gauge: %v", err)
		}
		return v.Raw
	}

	if cli.BreakerState() != BreakerClosed || breakerGauge() != int64(BreakerClosed) {
		t.Fatalf("initial breaker state = %v / gauge %d", cli.BreakerState(), breakerGauge())
	}

	inj.Partition(true)
	for i := 0; i < 2; i++ {
		if _, err := cli.Evaluate(faultCounterName, false); err == nil {
			t.Fatal("partitioned evaluate succeeded")
		}
	}
	if cli.BreakerState() != BreakerOpen || breakerGauge() != int64(BreakerOpen) {
		t.Fatalf("breaker after %d failures = %v / gauge %d, want open", 2, cli.BreakerState(), breakerGauge())
	}

	// Open breaker fast-fails without touching the network.
	before := inj.Stats().Refusals
	start := time.Now()
	if _, err := cli.Evaluate(faultCounterName, false); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker error = %v, want ErrCircuitOpen", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("fast-fail took %v", d)
	}
	if inj.Stats().Refusals != before {
		t.Fatal("open breaker still touched the network")
	}

	// After the cooldown one probe goes through; with the partition
	// healed it succeeds and closes the breaker.
	inj.Partition(false)
	time.Sleep(cooldown + 20*time.Millisecond)
	v, err := cli.Evaluate(faultCounterName, false)
	if err != nil || v.Raw != 9 {
		t.Fatalf("half-open probe = %+v, %v", v, err)
	}
	if cli.BreakerState() != BreakerClosed || breakerGauge() != int64(BreakerClosed) {
		t.Fatalf("breaker after probe = %v / gauge %d, want closed", cli.BreakerState(), breakerGauge())
	}

	// A failed probe re-opens: partition again, wait out the cooldown.
	inj.Partition(true)
	for i := 0; i < 2; i++ {
		cli.Evaluate(faultCounterName, false)
	}
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := cli.Evaluate(faultCounterName, false); err == nil {
		t.Fatal("probe through partition succeeded")
	}
	if cli.BreakerState() != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open", cli.BreakerState())
	}
}

// TestAbandonedProbeForfeits: the caller of the half-open probe gives up
// while its re-dial hangs. That proves nothing about the endpoint and
// must not leave the breaker half-open with no probe in flight,
// fast-failing every later call against a healthy server: a cooldown
// later the next call probes instead.
func TestAbandonedProbeForfeits(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", core.NewRegistry(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const cooldown = 20 * time.Millisecond
	const (
		dial = iota
		refuse
		hang
	)
	var mode atomic.Int32
	hanging := make(chan struct{})
	var d net.Dialer
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, ClientOptions{
		Retries: -1, BreakerThreshold: 1, BreakerCooldown: cooldown,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			switch mode.Load() {
			case refuse:
				return nil, errors.New("refused")
			case hang:
				hanging <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return d.DialContext(ctx, "tcp", addr)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mode.Store(refuse)
	cli.drop(cli.link.Load(), net.ErrClosed)
	if _, err := cli.Types(); err == nil || cli.BreakerState() != BreakerOpen {
		t.Fatalf("call through a refused dial = %v, breaker %v, want open", err, cli.BreakerState())
	}
	time.Sleep(cooldown + 10*time.Millisecond)

	mode.Store(hang)
	ctx, cancel := context.WithCancel(context.Background())
	probe := make(chan error, 1)
	go func() {
		_, err := cli.TypesContext(ctx)
		probe <- err
	}()
	<-hanging
	if st := cli.BreakerState(); st != BreakerHalfOpen {
		t.Fatalf("breaker with the probe dialling = %v, want half-open", st)
	}
	cancel()
	if err := <-probe; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe = %v, want context.Canceled", err)
	}

	mode.Store(dial)
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, err := cli.Types(); err != nil {
		t.Fatalf("call a cooldown after an abandoned probe = %v, want it to probe and succeed", err)
	}
	if st := cli.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker after a successful probe = %v, want closed", st)
	}
}

// TestPartitionDuringEvaluateLoop: the satellite's "partition during
// Evaluate loop" row — a sampling loop keeps producing values (stale
// through the outage, fresh after) without a single error.
func TestPartitionDuringEvaluateLoop(t *testing.T) {
	counter, _, inj, cli := newFaultFixture(t, chaos.Config{},
		ClientOptions{Timeout: 100 * time.Millisecond, Retries: 1,
			BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
			BreakerThreshold: -1, ServeStale: true})
	counter.Add(3)
	var statuses []core.Status
	for i := 0; i < 15; i++ {
		switch i {
		case 5:
			inj.Partition(true)
		case 10:
			inj.Partition(false)
		}
		v, err := cli.Evaluate(faultCounterName, false)
		if err != nil {
			t.Fatalf("sample %d errored: %v", i, err)
		}
		statuses = append(statuses, v.Status)
	}
	for i, st := range statuses {
		wantStale := i >= 5 && i < 10
		if wantStale && st != core.StatusStale {
			t.Fatalf("sample %d status = %v, want stale (statuses %v)", i, st, statuses)
		}
		if !wantStale && st == core.StatusStale {
			t.Fatalf("sample %d status = %v, want fresh (statuses %v)", i, st, statuses)
		}
	}
}

// TestOversizedParcel: the server bounds request size, answers with the
// typed protocol error, and keeps the connection serving.
func TestOversizedParcel(t *testing.T) {
	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	reg.MustRegister(c)
	c.Add(4)
	srv, err := ServeOptions("127.0.0.1:0", reg, 0, ServerOptions{MaxParcelSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1,
		ClientOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Discover(strings.Repeat("x", 64<<10))
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "exceeds maximum size") {
		t.Fatalf("oversized parcel error = %v, want typed size error", err)
	}
	// The handler survived and the stream is still framed.
	if v, err := cli.Evaluate(faultCounterName, false); err != nil || v.Raw != 4 {
		t.Fatalf("evaluate after oversize = %+v, %v", v, err)
	}
	// The violation is visible on the server's own error counter.
	if ev, err := reg.Evaluate("/parcels{locality#0/total}/count/errors", false); err != nil || ev.Raw != 1 {
		t.Fatalf("server error counter = %+v, %v; want 1", ev, err)
	}
}

// TestChaosAcceptanceScenario is the headline acceptance criterion:
// 10% drops + 5% delays-past-deadline injected under a 100-sample
// monitoring loop — zero crashes, ≥90% successful-or-stale samples, and
// client fault counters matching the injected fault counts exactly.
func TestChaosAcceptanceScenario(t *testing.T) {
	const timeout = 100 * time.Millisecond
	counter, _, inj, cli := newFaultFixture(t,
		chaos.Config{Seed: 20260806, DropProb: 0.10, DelayProb: 0.05, Delay: 3 * timeout},
		ClientOptions{Timeout: timeout, Retries: 3,
			BackoffBase: 2 * time.Millisecond, BackoffCap: 10 * time.Millisecond,
			BreakerThreshold: 50, ServeStale: true, Seed: 7})
	counter.Add(1)

	var good, stale, failed int
	for i := 0; i < 100; i++ {
		v, err := cli.Evaluate(faultCounterName, false)
		switch {
		case err != nil:
			failed++
		case v.Status == core.StatusStale:
			stale++
		default:
			good++
		}
	}
	if good+stale < 90 {
		t.Fatalf("successful-or-stale = %d+%d, want ≥ 90 of 100", good, stale)
	}
	if failed > 0 && good == 0 {
		t.Fatalf("loop effectively crashed: %d failures, no successes", failed)
	}

	fc, st := cli.FaultCounts(), inj.Stats()
	if st.Drops == 0 || st.Delays == 0 {
		t.Fatalf("chaos injected nothing (%+v) — seed no longer exercises the test", st)
	}
	if fc.Timeouts != st.Delays {
		t.Fatalf("timeout counter = %d, injected delays = %d", fc.Timeouts, st.Delays)
	}
	if fc.Errors != st.Drops+st.Delays {
		t.Fatalf("error counter = %d, injected faults = %d", fc.Errors, st.Drops+st.Delays)
	}
	// Every failed attempt is retried unless it exhausted the sample's
	// budget; each stale/failed sample burns exactly one final attempt.
	if want := fc.Errors - int64(stale+failed); fc.Retries != want {
		t.Fatalf("retry counter = %d, want %d (errors %d, stale %d, failed %d)",
			fc.Retries, want, fc.Errors, stale, failed)
	}
}

// TestIdempotencyClassification pins which requests may be blind-
// retried: reads without reset and re-appliable ops only — never spawn
// (its retry belongs to the spawn plane) nor an op the table lacks.
func TestIdempotencyClassification(t *testing.T) {
	rows := []struct {
		req  request
		want bool
	}{
		{request{Op: "evaluate_bulk"}, true},
		{request{Op: "evaluate_bulk", Reset: true}, false},
		{request{Op: "discover"}, true},
		{request{Op: "types"}, true},
		{request{Op: "bind_bulk"}, true},
		{request{Op: "spawn"}, false},
		{request{Op: "spawn_attach"}, true},
		{request{Op: "spawn_cancel"}, true},
		{request{Op: "tree_push"}, true},
		{request{Op: "no_such_op"}, false},
	}
	for _, row := range rows {
		if got := row.req.idempotent(); got != row.want {
			t.Errorf("idempotent(%q reset=%v) = %v, want %v", row.req.Op, row.req.Reset, got, row.want)
		}
	}
}

// TestSpawnSentExactlyOnce: a dropped spawn op surfaces the transport
// error after one attempt — the transport must not blind-retry a
// non-idempotent request, whatever Retries says; re-issuing it under
// the same key is the caller's (the spawn plane's) decision.
func TestSpawnSentExactlyOnce(t *testing.T) {
	serverReg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", serverReg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var calls atomic.Int64
	am := NewActionMap()
	if err := RegisterAction(am, "count", func(struct{}) (int64, error) {
		return calls.Add(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	srv.WithActions(am)

	inj := chaos.New(chaos.Config{})
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, ClientOptions{
		Timeout: 300 * time.Millisecond, Retries: 5, Dialer: inj.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx := context.Background()
	inj.ForceDrop(1)
	if _, err := cli.SpawnAction(ctx, "count", nil, "k"); err == nil {
		t.Fatal("dropped spawn reported success")
	}
	if fc := cli.FaultCounts(); fc.Retries != 0 || fc.Errors != 1 {
		t.Fatalf("spawn fault counters = %+v, want 1 error / 0 retries", fc)
	}
	if _, err := cli.SpawnAction(ctx, "count", nil, "k"); err != nil {
		t.Fatalf("spawn after reconnect: %v", err)
	}
	if st, err := cli.WaitSpawn(ctx, "k"); err != nil || st.Err != nil {
		t.Fatalf("wait: %v / %v", err, st.Err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("action ran %d times, want exactly 1 (no blind retry)", got)
	}
}

// TestBackoffDoesNotWaitForExchange: a retry's backoff sleeps on its own
// clock. The write lock is held across a re-dial or a write into a full
// socket, so a backoff that needed it to draw its jitter could not even
// start until that returned.
func TestBackoffDoesNotWaitForExchange(t *testing.T) {
	const base = 40 * time.Millisecond
	_, _, _, cli := newFaultFixture(t, chaos.Config{}, ClientOptions{BackoffBase: base})
	cli.wsem <- struct{}{} // somebody else's dial or write is in flight
	defer func() { <-cli.wsem }()
	done := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		cli.backoff(context.Background(), 0)
		done <- time.Since(start)
	}()
	select {
	case d := <-done:
		// Attempt 0 sleeps base/2 + [0, base): under 1.5x base, plus slack
		// for a loaded scheduler.
		if d < base/2 || d > 3*base {
			t.Fatalf("backoff(0) took %v, want within [%v, %v)", d, base/2, 3*base/2)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backoff blocked behind the write lock")
	}
}

// TestDeadlineCoversReconnect: when the server is gone entirely, a
// context deadline still bounds the whole retry/redial dance.
func TestDeadlineCoversReconnect(t *testing.T) {
	reg := core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, ClientOptions{
		Timeout: 5 * time.Second, Retries: 10,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 50 * time.Millisecond,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.EvaluateContext(ctx, faultCounterName, false)
	if err == nil {
		t.Fatal("evaluate against closed server succeeded")
	}
	if d := time.Since(start); d > 600*time.Millisecond {
		t.Fatalf("retry dance overran its context deadline: %v", d)
	}
}

// TestFaultPlaneIsObservable: the client's error/retry/timeout counters
// are real registered counters — the paper's own mechanism watching the
// fault plane.
func TestFaultPlaneIsObservable(t *testing.T) {
	serverReg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	serverReg.MustRegister(c)
	srv, err := Serve("127.0.0.1:0", serverReg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	monitorReg := core.NewRegistry()
	inj := chaos.New(chaos.Config{})
	cli, err := DialContext(context.Background(), srv.Addr(), monitorReg, 1, ClientOptions{
		Timeout: 300 * time.Millisecond, Retries: 2,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		Dialer: inj.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	inj.ForceDrop(1)
	if _, err := cli.Evaluate(faultCounterName, false); err != nil {
		t.Fatalf("evaluate with one drop: %v", err)
	}
	for counterName, want := range map[string]int64{
		"/parcels{locality#1/total}/count/errors":  1,
		"/parcels{locality#1/total}/count/retries": 1,
		"/parcels{locality#1/total}/breaker/state": int64(BreakerClosed),
	} {
		v, err := monitorReg.Evaluate(counterName, false)
		if err != nil {
			t.Fatalf("%s: %v", counterName, err)
		}
		if v.Raw != want {
			t.Fatalf("%s = %d, want %d", counterName, v.Raw, want)
		}
	}
	// Discovery sees the fault plane too.
	names, err := monitorReg.Discover("/parcels/count/timeouts")
	if err != nil || len(names) != 1 {
		t.Fatalf("Discover timeouts = %v, %v", names, err)
	}
}
