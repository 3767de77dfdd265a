package parcel

// The full-duplex connection's contract: calls overlap on one socket
// and are matched to responses by id, a slow body blocks nobody, spawn
// completions are pushed (and survive a reconnect), the heartbeat holds
// the server-side lease and bounds how long a dead link goes unnoticed,
// and a deadline miss costs the link — never a desynchronised stream.
// All run under -race in CI.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel/chaos"
)

// scriptedServer accepts connections and hands each, with its ordinal,
// to serve — a peer that answers however the test says.
func scriptedServer(t *testing.T, serve func(n int, conn net.Conn, rd *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for n := 1; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int) {
				defer conn.Close()
				serve(n, conn, bufio.NewReader(conn))
			}(n)
		}
	}()
	return ln.Addr().String()
}

// readRequest reads one request frame off a scripted connection.
func readRequest(rd *bufio.Reader) (request, error) {
	var req request
	line, err := rd.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &req)
	}
	return req, err
}

// awaitSent returns once the client has put n frames on the wire — the
// only way to know a call is in flight against a peer that stays silent.
func awaitSent(c *Client, n int64) {
	for c.meters.sent.Load() < n {
		time.Sleep(time.Millisecond)
	}
}

// warmUp completes one exchange, after which the link carries calls
// side by side (a link is in slow start until the server has answered).
func warmUp(t *testing.T, c *Client) {
	t.Helper()
	if v, err := c.Evaluate("warm-up", false); err != nil || v.Name != "warm-up" {
		t.Fatalf("warm-up = %q, %v", v.Name, err)
	}
}

// answer writes an evaluate_bulk response under id whose values name
// the counters that were asked for. Every name travels in the answer
// (encoded against a blank base), so a response routed to the wrong
// call shows as a wrong name.
func answer(conn net.Conn, id uint64, names ...string) {
	vals := make([]core.Value, len(names))
	for i, name := range names {
		vals[i] = core.Value{Name: name, Status: core.StatusValid}
	}
	var bulk bulkValues
	bulk.encode(vals, make([]string, len(names)))
	out, _ := json.Marshal(response{ID: id, Bulk: &bulk})
	conn.Write(append(out, '\n'))
}

func TestNoHeadOfLineBlocking(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	started := make(chan struct{})
	if err := RegisterAction(actions, "slow", func(ms int) (int, error) {
		close(started)
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAction(actions, "echo", func(n int) (int, error) { return n, nil }); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	slow := SpawnOn[int, int](ctx, cli, "slow", 200)
	<-started
	begin := time.Now()
	v, err := SpawnOn[int, int](ctx, cli, "echo", 7).Get()
	fast := time.Since(begin)
	if err != nil || v != 7 {
		t.Fatalf("echo = %d, %v", v, err)
	}
	if slow.Ready() {
		t.Fatal("the slow body finished first: the probe measured nothing")
	}
	if fast > 20*time.Millisecond {
		t.Fatalf("echo behind a 200 ms body took %v, want < 20 ms", fast)
	}
	if v, err := slow.Get(); err != nil || v != 200 {
		t.Fatalf("slow = %d, %v", v, err)
	}
}

func TestResponsesDemuxOutOfOrder(t *testing.T) {
	const calls = 8
	addr := scriptedServer(t, func(_ int, conn net.Conn, rd *bufio.Reader) {
		if req, err := readRequest(rd); err == nil {
			answer(conn, req.ID, req.Names...) // the warm-up
		}
		// Collect every request first, then answer newest to oldest.
		reqs := make([]request, calls)
		for i := range reqs {
			var err error
			if reqs[i], err = readRequest(rd); err != nil {
				return
			}
		}
		for i := calls - 1; i >= 0; i-- {
			answer(conn, reqs[i].ID, reqs[i].Names...)
		}
		rd.ReadByte() // hold the connection until the client closes it
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{Timeout: 5 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	warmUp(t, cli)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("/threads{locality#0/total}/count/c%d", i)
			if v, err := cli.Evaluate(name, false); err != nil || v.Name != name {
				t.Errorf("evaluate %s = %q, %v: answered with another call's response", name, v.Name, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestFreshLinkSlowStart: until the server has answered once, a link
// carries one call at a time — a burst must not ride (and die with) a
// connection nothing has come back on yet.
func TestFreshLinkSlowStart(t *testing.T) {
	first := make(chan request, 1)
	release := make(chan struct{})
	addr := scriptedServer(t, func(_ int, conn net.Conn, rd *bufio.Reader) {
		for i := 0; ; i++ {
			req, err := readRequest(rd)
			if err != nil {
				return
			}
			if i == 0 {
				first <- req
				<-release
			}
			answer(conn, req.ID, req.Names...)
		}
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	done := make(chan error, 2)
	for _, name := range []string{"a", "b"} {
		go func() {
			v, err := cli.Evaluate(name, false)
			if err == nil && v.Name != name {
				err = fmt.Errorf("%s answered %q", name, v.Name)
			}
			done <- err
		}()
	}
	<-first
	time.Sleep(20 * time.Millisecond) // room for the second call to jump the queue, if it could
	if sent := cli.meters.sent.Load(); sent != 1 {
		t.Fatalf("%d frames sent on a link the server has not answered on, want 1", sent)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlowStartHonoursEachDeadline: against a fresh link that never
// answers, a call queued behind the first one's exchange returns at its
// own deadline, without having been sent and without costing the link.
func TestSlowStartHonoursEachDeadline(t *testing.T) {
	addr := scriptedServer(t, func(_ int, _ net.Conn, rd *bufio.Reader) {
		for {
			if _, err := readRequest(rd); err != nil {
				return
			}
		}
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{Timeout: 10 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	patient := make(chan error, 1)
	go func() {
		_, err := cli.Evaluate("patient", false)
		patient <- err
	}()
	awaitSent(cli, 1)
	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = cli.EvaluateContext(ctx, "impatient", false)
	if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed > deadline+100*time.Millisecond {
		t.Fatalf("queued call = %v after %v, want context.DeadlineExceeded within deadline+100ms", err, elapsed)
	}
	if sent := cli.meters.sent.Load(); sent != 1 {
		t.Fatalf("%d frames sent, want 1: the queued call rode an unproven link", sent)
	}
	select {
	case err := <-patient:
		t.Fatalf("first call ended (%v): the queued call's deadline cost it the link", err)
	default:
	}
}

// TestDroppedLinkCountsOnceOnBreaker: the breaker counts a failed
// connection, not the calls that happened to share it — more calls than
// its threshold die with one link and the next call still goes through.
func TestDroppedLinkCountsOnceOnBreaker(t *testing.T) {
	const calls = 8 // default BreakerThreshold is 5
	addr := scriptedServer(t, func(n int, conn net.Conn, rd *bufio.Reader) {
		for i := 0; ; i++ {
			req, err := readRequest(rd)
			if err != nil || (n == 1 && i == calls) {
				return // the first connection dies with every call on it
			}
			if n > 1 || i == 0 {
				answer(conn, req.ID, req.Names...)
			}
		}
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{Timeout: 5 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	warmUp(t, cli)
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := cli.Evaluate("doomed", false)
			errs <- err
		}()
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call on the dropped link = %v, want a transport error", err)
		}
	}
	if st := cli.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker after one dropped link = %v, want closed", st)
	}
	if v, err := cli.Evaluate("next", false); err != nil || v.Name != "next" {
		t.Fatalf("call after the dropped link = %q, %v", v.Name, err)
	}
}

// TestLateFrameForAbandonedID: a cancelled call abandons its id without
// costing the link; the answer that arrives later is dropped and the
// stream stays framed for the next call.
func TestLateFrameForAbandonedID(t *testing.T) {
	release := make(chan struct{})
	addr := scriptedServer(t, func(_ int, conn net.Conn, rd *bufio.Reader) {
		first, err := readRequest(rd)
		if err != nil {
			return
		}
		<-release // the caller has given up by now
		answer(conn, first.ID, "late")
		for {
			req, err := readRequest(rd)
			if err != nil {
				return
			}
			answer(conn, req.ID, req.Names...)
		}
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.EvaluateContext(ctx, "abandoned", false)
		done <- err
	}()
	awaitSent(cli, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %v, want context.Canceled", err)
	}
	close(release)
	if v, err := cli.Evaluate("next", false); err != nil || v.Name != "next" {
		t.Fatalf("call after a late frame = %q, %v", v.Name, err)
	}
	if gen := cli.connGen.Load(); gen != 1 {
		t.Fatalf("connection generation = %d: a cancelled call cost the link", gen)
	}
	if fc := cli.FaultCounts(); fc != (FaultCounts{}) {
		t.Fatalf("fault counters = %+v: a cancelled call is not a transport fault", fc)
	}
}

// TestCallerDeadlineKeepsLink: a call that misses its own deadline only
// abandons its id — the call sharing the link is answered on it, with no
// reconnect and no retry.
func TestCallerDeadlineKeepsLink(t *testing.T) {
	release := make(chan struct{})
	addr := scriptedServer(t, func(_ int, conn net.Conn, rd *bufio.Reader) {
		for {
			req, err := readRequest(rd)
			if err != nil {
				return
			}
			switch {
			case slices.Contains(req.Names, "bystander"):
				<-release // answered once the impatient call has given up
			case slices.Contains(req.Names, "impatient"):
				continue // never answered
			}
			answer(conn, req.ID, req.Names...)
		}
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	warmUp(t, cli)
	bystander := make(chan error, 1)
	go func() {
		v, err := cli.Evaluate("bystander", false)
		if err == nil && v.Name != "bystander" {
			err = fmt.Errorf("answered %q", v.Name)
		}
		bystander <- err
	}()
	awaitSent(cli, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := cli.EvaluateContext(ctx, "impatient", false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient call = %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if err := <-bystander; err != nil {
		t.Fatalf("bystander call = %v, want success on the same connection", err)
	}
	if fc := cli.FaultCounts(); fc != (FaultCounts{Errors: 1, Timeouts: 1}) {
		t.Fatalf("fault counters = %+v, want 1 error / 0 retries / 1 timeout", fc)
	}
	if gen := cli.connGen.Load(); gen != 1 {
		t.Fatalf("connection generation = %d: a caller's deadline cost the link", gen)
	}
}

// TestTimeoutDropsLinkForEveryCall: a per-attempt Timeout that elapses
// under a caller still waiting marks the link black-holed and tears it
// down; the call sharing it fails with a transport error and, being
// idempotent, is retried on the next connection.
func TestTimeoutDropsLinkForEveryCall(t *testing.T) {
	addr := scriptedServer(t, func(n int, conn net.Conn, rd *bufio.Reader) {
		for {
			req, err := readRequest(rd)
			if err != nil {
				return
			}
			if n > 1 || slices.Contains(req.Names, "warm-up") { // the first connection falls silent
				answer(conn, req.ID, req.Names...)
			}
		}
	})
	cli, err := DialContext(context.Background(), addr, nil, 1, ClientOptions{
		Timeout: 300 * time.Millisecond, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	warmUp(t, cli)
	call := func(name string, done chan<- error) {
		v, err := cli.Evaluate(name, false)
		if err == nil && v.Name != name {
			err = fmt.Errorf("answered %q", v.Name)
		}
		done <- err
	}
	timedOut, bystander := make(chan error, 1), make(chan error, 1)
	go call("timed-out", timedOut)
	awaitSent(cli, 2)
	time.Sleep(100 * time.Millisecond) // the bystander's own Timeout runs out well after
	go call("bystander", bystander)
	awaitSent(cli, 3)
	for name, ch := range map[string]chan error{"timed-out": timedOut, "bystander": bystander} {
		if err := <-ch; err != nil {
			t.Fatalf("%s call = %v, want success on the second connection", name, err)
		}
	}
	if fc := cli.FaultCounts(); fc != (FaultCounts{Errors: 2, Retries: 2, Timeouts: 1}) {
		t.Fatalf("fault counters = %+v, want 2 errors / 2 retries / 1 timeout", fc)
	}
	if gen := cli.connGen.Load(); gen != 2 {
		t.Fatalf("connection generation = %d, want 2", gen)
	}
}

func TestCompletionSurvivesReconnect(t *testing.T) {
	cfg := chaos.Config{}
	actions, _, _, inj, cli := newSpawnFixture(t, ServerOptions{}, &cfg)
	var execs atomic.Int64
	release := make(chan struct{})
	if err := RegisterAction(actions, "gated", func(n int) (int, error) {
		execs.Add(1)
		<-release
		return n + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st, err := cli.SpawnAction(ctx, "gated", json.RawMessage("41"), "survivor")
	if err != nil || st.Done {
		t.Fatalf("spawn = %+v, %v", st, err)
	}
	waited := make(chan SpawnStatus, 1)
	go func() {
		st, _ := cli.WaitSpawn(ctx, "survivor")
		waited <- st
	}()
	// Lose the connection the spawn was acknowledged on; the retried read
	// brings up the next one.
	inj.ForceDrop(1)
	if _, err := cli.Types(); err != nil {
		t.Fatal(err)
	}
	if gen := cli.connGen.Load(); gen != 2 {
		t.Fatalf("connection generation = %d, want 2", gen)
	}
	close(release)
	select {
	case st := <-waited:
		if st.Err != nil || string(st.Result) != "42" {
			t.Fatalf("result after re-attach = %s, %v", st.Result, st.Err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("completion never reached the waiter after the reconnect")
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("body ran %d times, want exactly once", got)
	}
}

// holeConn swallows writes once its dialer is stalled: the peer hears
// nothing and so says nothing — a black-holed link.
type holeConn struct {
	net.Conn
	stalled *atomic.Bool
}

func (c holeConn) Write(p []byte) (int, error) {
	if c.stalled.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c holeConn) Read(p []byte) (int, error) {
	for {
		if n, err := c.Conn.Read(p); err != nil || !c.stalled.Load() {
			return n, err
		}
	}
}

func TestHeartbeatKeepsLeaseAndDetectsBlackHole(t *testing.T) {
	const lease = 500 * time.Millisecond
	reg := core.NewRegistry()
	srv, err := ServeOptions("127.0.0.1:0", reg, 0, ServerOptions{SpawnLease: lease})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	actions := NewActionMap()
	srv.WithActions(actions)
	if err := RegisterActionCtx(actions, "long", func(ctx context.Context, d time.Duration) (string, error) {
		select {
		case <-time.After(d):
			return "finished", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}); err != nil {
		t.Fatal(err)
	}
	var stalled atomic.Bool
	var d net.Dialer
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, ClientOptions{
		Timeout: 200 * time.Millisecond, Retries: -1, BreakerThreshold: -1,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, "tcp", addr)
			return holeConn{conn, &stalled}, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	// A body three leases long, waited on the whole time: the heartbeat is
	// the only thing touching it, and it must not be orphaned.
	res, err := cli.SpawnJSON(ctx, "long", json.RawMessage(fmt.Sprint(int64(3*lease))))
	if err != nil || string(res) != `"finished"` {
		t.Fatalf("waited 3×lease body = %s, %v; want it to outlive its lease", res, err)
	}
	if v, err := reg.Evaluate("/runtime{locality#0/total}/remote/count/orphaned", false); err != nil || v.Raw != 0 {
		t.Fatalf("orphaned = %d, %v; want 0", v.Raw, err)
	}

	// The link stalls under a pending wait with no deadline: the wait must
	// resolve lost within the backstop window, not hang.
	st, err := cli.SpawnAction(ctx, "long", json.RawMessage(fmt.Sprint(int64(time.Minute))), "into-the-void")
	if err != nil || st.Done {
		t.Fatalf("spawn = %+v, %v", st, err)
	}
	stalled.Store(true)
	begin := time.Now()
	st, err = cli.WaitSpawn(ctx, "into-the-void")
	if err != nil || !errors.Is(st.Err, ErrSpawnLost) {
		t.Fatalf("wait over a black-holed link = %+v, %v; want ErrSpawnLost", st, err)
	}
	if d := time.Since(begin); d > spawnLostAfter+2*time.Second {
		t.Fatalf("lost after %v, want within %v", d, spawnLostAfter)
	}
}

// TestSpawnsInterleavedWithBulkEvaluate: 1k futures and a bulk sampling
// loop share one client; neither plane may starve or corrupt the other.
func TestSpawnsInterleavedWithBulkEvaluate(t *testing.T) {
	actions, reg, _, _, cli := newSpawnFixture(t, ServerOptions{}, nil)
	if err := RegisterAction(actions, "square", func(n int) (int, error) { return n * n, nil }); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 16)
	for i := range names {
		c := core.NewLocalityRaw("threads", fmt.Sprintf("count/c%d", i), 0, "", core.UnitEvents)
		c.Add(int64(i))
		reg.MustRegister(c)
		names[i] = c.Name().String()
	}
	set := cli.NewBulkSet(names)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const fan = 1000
	futs := make([]*RemoteFuture[int], fan)
	sampled := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			vals, err := set.EvaluateContext(ctx, false)
			if err == nil && (len(vals) != len(names) || vals[3].Raw != 3) {
				err = fmt.Errorf("sample %d = %d values, c3 = %+v", i, len(vals), vals)
			}
			if err != nil {
				sampled <- err
				return
			}
		}
		sampled <- nil
	}()
	for i := range futs {
		futs[i] = SpawnOn[int, int](ctx, cli, "square", i)
	}
	for i, f := range futs {
		if v, err := f.GetContext(ctx); err != nil || v != i*i {
			t.Fatalf("square(%d) = %d, %v", i, v, err)
		}
	}
	if err := <-sampled; err != nil {
		t.Fatalf("bulk sampling beside the spawns: %v", err)
	}
}

// tracked reports how many spawns the client's completion table holds.
func tracked(c *Client) int {
	c.spawns.mu.Lock()
	defer c.spawns.mu.Unlock()
	return len(c.spawns.entries)
}

// TestCompletionTableKeepsAndForgets: a completion pushed before its
// WaitSpawn is kept, so the wait costs no frame; spawns nobody waits on
// are bounded, and an evicted key can still be waited on.
func TestCompletionTableKeepsAndForgets(t *testing.T) {
	actions, _, _, _, cli := newSpawnFixture(t, ServerOptions{MaxSpawnTasks: 2 * maxIdleSpawns}, nil)
	if err := RegisterAction(actions, "echo", func(n int) (int, error) { return n, nil }); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	if err := RegisterAction(actions, "gated", func(n int) (int, error) {
		<-release
		return n, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterActionCtx(actions, "hold", func(ctx context.Context, _ struct{}) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spawn := func(key string, n int) {
		t.Helper()
		if _, err := cli.SpawnAction(ctx, "echo", json.RawMessage(fmt.Sprint(n)), key); err != nil {
			t.Fatal(err)
		}
	}
	// Acknowledged running, then finished: the push lands with nobody
	// waiting yet.
	if st, err := cli.SpawnAction(ctx, "gated", json.RawMessage("5"), "early"); err != nil || st.Done {
		t.Fatalf("spawn = %+v, %v", st, err)
	}
	close(release)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		cli.spawns.mu.Lock()
		landed := len(cli.spawns.entries["early"].ch) == 1
		cli.spawns.mu.Unlock()
		if landed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("completion was never pushed")
		}
	}
	sent := cli.meters.sent.Load()
	if st, err := cli.WaitSpawn(ctx, "early"); err != nil || st.Err != nil || string(st.Result) != "5" {
		t.Fatalf("kept completion = %+v, %v", st, err)
	}
	if got := cli.meters.sent.Load() - sent; got != 0 {
		t.Fatalf("waiting on a kept completion sent %d frames, want 0", got)
	}
	if n := tracked(cli); n != 0 {
		t.Fatalf("%d spawns tracked after delivery, want 0", n)
	}

	for i := 0; i < maxIdleSpawns+100; i++ {
		spawn(fmt.Sprintf("idle-%d", i), i)
	}
	if n := tracked(cli); n > maxIdleSpawns {
		t.Fatalf("%d never-waited spawns tracked, want at most %d", n, maxIdleSpawns)
	}
	if st, err := cli.WaitSpawn(ctx, "idle-0"); err != nil || st.Err != nil || string(st.Result) != "0" {
		t.Fatalf("evicted key = %+v, %v; want its retained result", st, err)
	}
	// A body that cannot finish is tracked until it is cancelled.
	tracks := func(key string) bool {
		cli.spawns.mu.Lock()
		defer cli.spawns.mu.Unlock()
		return cli.spawns.entries[key] != nil
	}
	if st, err := cli.SpawnAction(ctx, "hold", nil, "held"); err != nil || st.Done || !tracks("held") {
		t.Fatalf("spawn = %+v, %v, tracked %v; want it running and tracked", st, err, tracks("held"))
	}
	if err := cli.CancelSpawn(ctx, "held"); err != nil || tracks("held") {
		t.Fatalf("cancel = %v, still tracked %v", err, tracks("held"))
	}
	cli.Close()
	if n := tracked(cli); n != 0 {
		t.Fatalf("%d spawns tracked after Close, want 0", n)
	}
}

// TestEveryFrameCounted: pushes and heartbeats are parcels like any
// other — each end's sent meter matches the other's received meter.
func TestEveryFrameCounted(t *testing.T) {
	sreg, creg := core.NewRegistry(), core.NewRegistry()
	srv, err := Serve("127.0.0.1:0", sreg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	actions := NewActionMap()
	srv.WithActions(actions)
	if err := RegisterAction(actions, "nap", func(ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := DialContext(context.Background(), srv.Addr(), creg, 1, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Three heartbeat periods: spawn, acknowledgement, heartbeats and their
	// answers, and one pushed completion.
	if _, err := cli.SpawnJSON(context.Background(), "nap", json.RawMessage(fmt.Sprint(3*heartbeatPeriod.Milliseconds()))); err != nil {
		t.Fatal(err)
	}
	read := func(reg *core.Registry, locality int, counter string) int64 {
		v, err := reg.Evaluate(fmt.Sprintf("/parcels{locality#%d/total}/%s", locality, counter), false)
		if err != nil {
			t.Fatal(err)
		}
		return v.Raw
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		cs, cr := read(creg, 1, "count/sent"), read(creg, 1, "count/received")
		ss, sr := read(sreg, 0, "count/sent"), read(sreg, 0, "count/received")
		bytesOK := read(creg, 1, "data/sent") == read(sreg, 0, "data/received") &&
			read(sreg, 0, "data/sent") == read(creg, 1, "data/received")
		// At rest the server has sent one frame more than it received: the
		// push. (Mid-heartbeat the four counts can agree without it.)
		if cs == sr && ss == cr && bytesOK && cs >= 2 && cr == cs+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client sent %d / server received %d; server sent %d / client received %d: want each pair equal, ≥ 2 requests (spawn + heartbeats) and one push more than requests", cs, sr, ss, cr)
		}
	}
}
