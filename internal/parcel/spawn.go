package parcel

// Distributed spawn: the parcel layer's promotion from counter reads to
// a fault-tolerant work plane (docs/FAULTS.md, "Remote spawn"). A spawn
// ships an action invocation with a per-spawn idempotency key and the
// client's remaining deadline budget; the server executes it
// asynchronously in a keyed task table, so
//
//   - a retried spawn after a dropped response executes exactly once
//     (the key dedupes into the existing entry),
//   - the client's deadline propagates: the action runs under a context
//     bounded by the shipped budget,
//   - cancelling the client side sends a best-effort spawn_cancel op and
//     the server abandons the task,
//   - tasks whose client stopped touching them past a lease are reaped
//     as orphans (counted in /runtime{...}/remote/count/orphaned).
//
// Completion is pushed, not polled: the server sends a task's final
// state to every connection it told the task was running (spawn's
// answer, a dedupe answer, spawn_attach after a reconnect) and the
// client keeps it for the key's WaitSpawn. A body that ends before its
// spawn's answer is built rides in that answer instead, so a fast spawn
// costs one frame each way. While waits are pending spawn_attach is also
// the client's heartbeat: it renews the connection's leases and bounds
// how long an unreachable server goes unnoticed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// spawnState is the wire form of one spawn's condition.
type spawnState struct {
	Key    string          `json:"key"`
	Action string          `json:"action,omitempty"`
	State  string          `json:"state"` // "running" | "done"
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Code   string          `json:"code,omitempty"`
}

const (
	spawnRunning = "running"
	spawnDone    = "done"
)

// maxAttachKeys bounds one spawn_attach's key list, like maxBulkNames.
const maxAttachKeys = 4096

// ---------------------------------------------------------------------------
// Server side: the keyed task table.

// spawnTask is one remote spawn living in the server's table.
type spawnTask struct {
	key    string
	action string
	cancel context.CancelFunc

	lastTouch atomic.Int64 // unix nanos of the client's last spawn/attach/cancel
	doneAt    atomic.Int64 // unix nanos of completion; 0 while running
	orphaned  atomic.Bool

	mu sync.Mutex
	// Written once by complete, before doneAt publishes them.
	result  json.RawMessage
	errMsg  string
	errCode string
	// waiting are the connections a frame told this task is running: its
	// spawn's answer, a dedupe answer, or spawn_attach. Their heartbeats
	// renew its lease, and complete pushes the final state to each.
	waiting []*connWriter
}

func (t *spawnTask) running() bool { return t.doneAt.Load() == 0 }

// complete resolves the task once and pushes its state to every waiting
// connection; later calls (a cancelled action body returning after the
// reaper force-completed it) are no-ops.
func (t *spawnTask) complete(result json.RawMessage, errMsg, errCode string) {
	t.mu.Lock()
	if !t.running() {
		t.mu.Unlock()
		return
	}
	t.result, t.errMsg, t.errCode = result, errMsg, errCode
	t.doneAt.Store(time.Now().UnixNano())
	waiting := t.waiting
	t.waiting = nil
	t.mu.Unlock()
	if len(waiting) == 0 {
		return // no frame said running: the answer still to be built carries it
	}
	st := t.state()
	for _, w := range waiting {
		_ = w.send(response{Spawn: &st}, true)
	}
}

// report snapshots the task for a frame to w. If that frame will say
// running, w waits for the push: under mu, complete either has run, and
// the frame carries the final state, or will run and push it to w. If w
// died, its client re-attaches the key after reconnecting.
func (t *spawnTask) report(w *connWriter) spawnState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running() && !slices.Contains(t.waiting, w) {
		t.waiting = append(t.waiting, w)
	}
	return t.state()
}

// state snapshots the task for the wire.
func (t *spawnTask) state() spawnState {
	st := spawnState{Key: t.key, Action: t.action, State: spawnRunning}
	if !t.running() {
		st.State = spawnDone
		st.Result = t.result
		st.Error = t.errMsg
		st.Code = t.errCode
	}
	return st
}

// spawnTable is the server-level spawn state: alive across connections
// (a retried spawn typically arrives on a fresh connection after a
// fault), bounded, and leased.
type spawnTable struct {
	opts     ServerOptions
	orphaned *core.RawCounter

	mu    sync.Mutex
	tasks map[string]*spawnTask
}

func newSpawnTable(opts ServerOptions, orphaned *core.RawCounter) *spawnTable {
	return &spawnTable{opts: opts, orphaned: orphaned, tasks: make(map[string]*spawnTask)}
}

// lookup returns the task for key, refreshing its lease.
func (tb *spawnTable) lookup(key string) *spawnTask {
	tb.mu.Lock()
	t := tb.tasks[key]
	tb.mu.Unlock()
	if t != nil {
		t.lastTouch.Store(time.Now().UnixNano())
	}
	return t
}

// reaper starts the orphan/retention sweep loop; the server stops it.
func (tb *spawnTable) reaper() *core.Ticker {
	period := tb.opts.SpawnLease / 4
	if tb.opts.SpawnLease <= 0 || period > time.Second {
		period = time.Second
	}
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	return core.Every(period, func(now time.Time) time.Duration {
		tb.sweep(now)
		return period
	})
}

// sweep cancels orphaned running tasks and evicts completed entries past
// retention.
func (tb *spawnTable) sweep(now time.Time) {
	var orphans []*spawnTask
	tb.mu.Lock()
	for key, t := range tb.tasks {
		if t.running() {
			// Leased from the last touch of the key or heartbeat of a waiting connection.
			touch := t.lastTouch.Load()
			t.mu.Lock()
			for _, w := range t.waiting {
				touch = max(touch, w.beat.Load())
			}
			t.mu.Unlock()
			if tb.opts.SpawnLease > 0 && now.UnixNano()-touch > int64(tb.opts.SpawnLease) {
				orphans = append(orphans, t)
			}
			continue
		}
		if now.UnixNano()-t.doneAt.Load() > int64(tb.opts.SpawnRetention) {
			delete(tb.tasks, key)
		}
	}
	tb.mu.Unlock()
	for _, t := range orphans {
		if t.orphaned.CompareAndSwap(false, true) {
			tb.orphaned.Inc()
			t.cancel()
			// Force-complete so a non-cooperative action body cannot keep
			// the entry "running" (and re-orphanable) forever; if the body
			// later returns, its complete() is a no-op.
			t.complete(nil, "parcel: spawn orphaned: client lease expired", codeCancelled)
		}
	}
}

// spawn handles the spawn op: dedupe by key, or admit and launch. Either
// way this connection hears the final state, in the answer or a push.
func (s *Server) spawn(req request, cs *connState) response {
	if req.Key == "" {
		return response{Error: "parcel: spawn needs an idempotency key", Code: codeProtocol}
	}
	m, _ := s.actions.Load().(*ActionMap)
	if m == nil {
		return response{Error: "parcel: this server exposes no actions", Code: codeActionUnknown}
	}
	fn := m.lookup(req.Action)
	if fn == nil {
		return response{Error: fmt.Sprintf("parcel: unknown action %q", req.Action), Code: codeActionUnknown}
	}

	tb := s.spawns
	tb.mu.Lock()
	if t := tb.tasks[req.Key]; t != nil {
		// Dedupe: the retried spawn of a non-idempotent action observes
		// the one existing execution instead of starting a second.
		tb.mu.Unlock()
		t.lastTouch.Store(time.Now().UnixNano())
		st := t.report(cs.w)
		return response{Spawn: &st}
	}
	if len(tb.tasks) >= tb.opts.MaxSpawnTasks {
		tb.mu.Unlock()
		return response{Error: fmt.Sprintf("parcel: spawn table full (%d tasks)", tb.opts.MaxSpawnTasks), Code: codeSpawnLimit}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if req.BudgetMS > 0 {
		// Deadline propagation: the client shipped its remaining budget;
		// the action runs under it even if the client dies.
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(req.BudgetMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	t := &spawnTask{key: req.Key, action: req.Action, cancel: cancel}
	t.lastTouch.Store(time.Now().UnixNano())
	tb.tasks[req.Key] = t
	tb.mu.Unlock()

	// The action body runs off the handler goroutine so the connection
	// stays responsive (cancels, counter reads, other spawns). Not on s.wg: a
	// stuck body must not wedge Close — its scope dies with baseCtx. It
	// captures two fields, not req, which would then live on the heap.
	action, arg := req.Action, req.Arg
	go func() {
		defer cancel()
		result, err := runAction(ctx, action, fn, arg)
		switch {
		case err == nil:
			t.complete(result, "", "")
		case ctx.Err() != nil:
			t.complete(nil, "parcel: spawn cancelled: "+ctx.Err().Error(), codeCancelled)
		default:
			code := codeActionError
			var pe *actionPanicError
			if errors.As(err, &pe) {
				code = codeActionPanic
			}
			t.complete(nil, err.Error(), code)
		}
	}()
	// The body waits in this processor's next slot: yield it once, so a
	// body that does not block ends before the answer is built and rides
	// in it. One that blocks parks at once and is answered running.
	runtime.Gosched()
	st := t.report(cs.w)
	return response{Spawn: &st}
}

// spawnAttach handles the spawn_attach op, also the client's heartbeat:
// it renews the lease of every spawn attached to this connection and
// attaches the listed keys to it. A listed key that has finished, or
// that the table lacks, is answered at once with a pushed state.
func (s *Server) spawnAttach(req request, cs *connState) response {
	if len(req.Attach) > maxAttachKeys {
		return response{Error: fmt.Sprintf("parcel: spawn_attach limited to %d keys", maxAttachKeys), Code: codeProtocol}
	}
	cs.w.beat.Store(time.Now().UnixNano())
	for _, key := range req.Attach {
		t := s.spawns.lookup(key)
		if t == nil {
			_ = cs.w.send(response{Spawn: &spawnState{Key: key, State: spawnDone,
				Error: "parcel: no spawn with key " + key, Code: codeSpawnUnknown}}, false)
			continue
		}
		if st := t.report(cs.w); st.State == spawnDone {
			_ = cs.w.send(response{Spawn: &st}, true)
		}
	}
	return response{}
}

// spawnCancel handles the spawn_cancel op — best-effort, idempotent.
func (s *Server) spawnCancel(req request, _ *connState) response {
	if req.Key == "" {
		return response{Error: "parcel: spawn_cancel needs a key", Code: codeProtocol}
	}
	t := s.spawns.lookup(req.Key)
	if t == nil {
		return response{Error: "parcel: no spawn with key " + req.Key, Code: codeSpawnUnknown}
	}
	t.cancel()
	t.complete(nil, "parcel: spawn cancelled by client", codeCancelled)
	st := t.state()
	return response{Spawn: &st}
}

// ---------------------------------------------------------------------------
// Client side.

// Typed spawn/action failures, so callers classify without string
// matching (the agas spawn router's failover decisions depend on this).
var (
	// ErrActionUnknown reports that the target registers no action with
	// the requested name — distinct from the action running and failing.
	ErrActionUnknown = errors.New("parcel: unknown action")
	// ErrSpawnCancelled reports a spawn the server abandoned: client
	// cancel op, shipped budget expiry, or orphan lease.
	ErrSpawnCancelled = errors.New("parcel: remote spawn cancelled")
	// ErrSpawnUnknown reports a wait/cancel for a key the server does not
	// hold — after a server restart or retention eviction. The spawn
	// definitely is not running there; re-spawning under the same key is
	// safe.
	ErrSpawnUnknown = errors.New("parcel: unknown spawn key")
	// ErrSpawnLimit reports a refused spawn: the server's table is full.
	ErrSpawnLimit = errors.New("parcel: spawn table full")
	// ErrSpawnLost reports a spawn whose server answered no heartbeat for
	// spawnLostAfter; whether it ran is unknowable from this side.
	ErrSpawnLost = errors.New("parcel: spawn lost: server unreachable")
)

// ActionError is an error returned (or panicked) by the remote action
// body itself: the spawn plane and transport worked.
type ActionError struct {
	Action string
	Msg    string
	Panic  bool
}

// Error implements error.
func (e *ActionError) Error() string {
	if e.Panic {
		return fmt.Sprintf("parcel: action %q panicked: %s", e.Action, e.Msg)
	}
	return fmt.Sprintf("parcel: action %q: %s", e.Action, e.Msg)
}

// SpawnStatus is the client-side view of one spawn.
type SpawnStatus struct {
	// Done reports whether the spawn reached a terminal state.
	Done bool
	// Result is the action's JSON result when Done with a nil Err.
	Result json.RawMessage
	// Err classifies a terminal failure: *ActionError, ErrActionUnknown,
	// ErrSpawnCancelled, ErrSpawnUnknown or ErrSpawnLimit (wrapped).
	Err error
}

// spawnErr maps a wire state onto the typed error vocabulary, counting
// action-level faults on the client's meters.
func (c *Client) spawnErr(action string, code, msg string) error {
	switch code {
	case codeActionUnknown:
		c.meters.actionUnknown.Inc()
		return fmt.Errorf("%w %q: %s", ErrActionUnknown, action, msg)
	case codeActionError:
		c.meters.actionErrors.Inc()
		return &ActionError{Action: action, Msg: msg}
	case codeActionPanic:
		c.meters.actionErrors.Inc()
		return &ActionError{Action: action, Msg: msg, Panic: true}
	case codeCancelled:
		return fmt.Errorf("%w: %s", ErrSpawnCancelled, msg)
	case codeSpawnUnknown:
		return fmt.Errorf("%w: %s", ErrSpawnUnknown, msg)
	case codeSpawnLimit:
		return fmt.Errorf("%w: %s", ErrSpawnLimit, msg)
	case codeSpawnLost:
		return fmt.Errorf("%w: %s", ErrSpawnLost, msg)
	case codeClientClosed:
		return ErrClientClosed
	default:
		return &ServerError{Msg: msg}
	}
}

func stateToStatus(c *Client, action string, st spawnState) SpawnStatus {
	out := SpawnStatus{Done: st.State == spawnDone}
	if !out.Done {
		return out
	}
	if st.Error != "" || st.Code != "" {
		out.Err = c.spawnErr(action, st.Code, st.Error)
		return out
	}
	out.Result = st.Result
	return out
}

// budgetMS converts ctx's remaining deadline into the wire budget: 0
// means unbounded, and a sub-millisecond remainder still ships 1ms so an
// almost-expired deadline doesn't degrade to "no deadline".
func budgetMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms <= 0 {
		return 1
	}
	return ms
}

// SpawnAction launches one remote spawn attempt under key. The request
// is sent exactly once — the transport never blindly re-sends it — so a
// transport error leaves the execution ambiguous and the caller decides:
// re-issuing SpawnAction with the same key is always safe (the server
// dedupes), which is how the spawn plane retries non-idempotent actions.
func (c *Client) SpawnAction(ctx context.Context, action string, arg json.RawMessage, key string) (st SpawnStatus, err error) {
	// Tracked first: the completion may be pushed ahead of the acknowledgement.
	gen := c.connGen.Load()
	c.spawns.open(key)
	defer func() {
		if err != nil || st.Done {
			c.spawns.forget(key)
		} else {
			c.spawns.settle([]string{key}, gen)
		}
	}()
	resp, err := c.roundTripContext(ctx, request{
		Op: "spawn", Action: action, Arg: arg, Key: key, BudgetMS: budgetMS(ctx),
	})
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			return SpawnStatus{Done: true, Err: c.spawnErr(action, resp.Code, se.Msg)},
				nil
		}
		return SpawnStatus{}, err
	}
	if resp.Spawn == nil {
		return SpawnStatus{}, &ProtocolError{Reason: "spawn response carries no state"}
	}
	return stateToStatus(c, action, *resp.Spawn), nil
}

// CancelSpawn asks the server to abandon a spawn — best effort: an
// unreachable server just means the orphan lease will reap it.
func (c *Client) CancelSpawn(ctx context.Context, key string) error {
	c.spawns.forget(key)
	_, err := c.roundTripContext(ctx, request{Op: "spawn_cancel", Key: key})
	var se *ServerError
	if errors.As(err, &se) {
		// Cancelling an already-evicted spawn is success, not failure.
		return nil
	}
	return err
}

// ---------------------------------------------------------------------------
// Pushed completions: the client's table of spawns, and the heartbeat.

const (
	// heartbeatPeriod paces spawn_attach while waits are pending;
	// SpawnLease must comfortably exceed it.
	heartbeatPeriod = 100 * time.Millisecond
	// spawnLostAfter of unanswered heartbeats resolves every pending wait
	// ErrSpawnLost: the never-hang backstop for futures without a deadline.
	spawnLostAfter = 5 * time.Second
	// maxIdleSpawns bounds the spawns tracked without a waiter (WaitSpawn
	// attaches an evicted key afresh).
	maxIdleSpawns = 4096
	// Terminal codes the client itself assigns, never on the wire.
	codeSpawnLost    = "spawn_lost"
	codeClientClosed = "client_closed"
)

// spawnEntry tracks one spawn until its terminal state reaches a waiter.
type spawnEntry struct {
	ch       chan spawnState // 1-buffered terminal state for WaitSpawn; made on the first completion or wait
	gen      uint64          // connection the key is attached on; 0: none
	spawning bool            // its spawn op is in flight: not to be attached yet
	waited   bool
}

// spawnWaits is every spawn this client may still hear a completion for.
type spawnWaits struct {
	mu      sync.Mutex
	entries map[string]*spawnEntry
	idle    []string      // keys opened by a spawn op, oldest first: eviction order
	beating bool          // the heartbeat goroutine is running
	kick    chan struct{} // 1-buffered: beat now — a key or the link went stale
}

// open starts (or restarts) tracking key for a spawn op about to be sent.
func (t *spawnWaits) open(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		e = &spawnEntry{}
		t.entries[key] = e
		if t.idle = append(t.idle, key); len(t.idle) > maxIdleSpawns {
			if old := t.entries[t.idle[0]]; old != nil && !old.waited && !old.spawning {
				delete(t.entries, t.idle[0])
			}
			t.idle = t.idle[1:]
		}
	}
	e.spawning = true
}

// settle records that the server attached keys to connection gen.
func (t *spawnWaits) settle(keys []string, gen uint64) {
	t.mu.Lock()
	for _, key := range keys {
		if e := t.entries[key]; e != nil {
			e.gen, e.spawning = gen, false
		}
	}
	t.mu.Unlock()
}

// forget stops tracking a key whose spawn op failed or finished it, or
// that was cancelled; one with a waiter is left to be attached again.
func (t *spawnWaits) forget(key string) {
	t.mu.Lock()
	if e := t.entries[key]; e != nil && e.waited {
		e.gen, e.spawning = 0, false
	} else {
		delete(t.entries, key)
	}
	t.mu.Unlock()
}

// complete hands a pushed terminal state to its key's waiter, or keeps
// it for one. An untracked key's is dropped: a later WaitSpawn attaches
// the key and the server pushes it again.
func (t *spawnWaits) complete(st spawnState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[st.Key]
	if e == nil || st.State != spawnDone || len(e.ch) > 0 {
		return // untracked, not terminal, or pushed twice
	}
	if e.waited {
		delete(t.entries, st.Key)
	}
	if e.ch == nil {
		e.ch = make(chan spawnState, 1)
	}
	e.ch <- st
}

// failAll resolves every waited key with code and empties the table.
func (t *spawnWaits) failAll(code, msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, e := range t.entries {
		if e.waited && len(e.ch) == 0 {
			e.ch <- spawnState{Key: key, State: spawnDone, Code: code, Error: msg}
		}
	}
	t.entries, t.idle = make(map[string]*spawnEntry), nil
}

// stale lists the keys (one frame's worth) not attached to connection
// gen and reports whether anybody waits; if not, the heartbeat stops.
func (t *spawnWaits) stale(gen uint64) (keys []string, waiting bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, e := range t.entries {
		waiting = waiting || e.waited
		if e.gen != gen && !e.spawning && len(keys) < maxAttachKeys {
			keys = append(keys, key)
		}
	}
	t.beating = waiting
	return keys, waiting
}

// beatNow wakes the heartbeat ahead of its period.
func (t *spawnWaits) beatNow() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// heartbeat runs while waits are pending. Each beat is one spawn_attach:
// it renews the server-side leases of this connection's spawns, attaches
// the keys a reconnect left unattached, and proves the link answers.
func (c *Client) heartbeat() {
	defer c.wg.Done()
	tick := time.NewTicker(heartbeatPeriod)
	defer tick.Stop()
	lastAck := time.Now()
	for {
		select {
		case <-tick.C:
		case <-c.spawns.kick:
		case <-c.life.Done():
			return // Close resolves the waits
		}
		gen := c.connGen.Load()
		keys, waiting := c.spawns.stale(gen)
		if !waiting {
			return
		}
		ctx, cancel := context.WithDeadline(c.life, lastAck.Add(spawnLostAfter))
		_, err := c.roundTripContext(ctx, request{Op: "spawn_attach", Attach: keys})
		cancel()
		switch {
		case err == nil:
			lastAck = time.Now()
			c.spawns.settle(keys, gen)
		case time.Since(lastAck) >= spawnLostAfter && !c.isClosed():
			c.spawns.failAll(codeSpawnLost, err.Error())
			lastAck = time.Now()
		}
		if c.connGen.Load() != gen {
			c.spawns.beatNow() // re-dialled meanwhile: every key is stale again, attach at once
		}
	}
}

// WaitSpawn waits for the completion the server pushes for key — no
// request at all for a key spawned on this connection. If ctx ends
// first, a best-effort cancel op is sent and ctx's error returned. The
// wait itself can never hang: a server that stops answering heartbeats
// resolves the status as ErrSpawnLost, Close as ErrClientClosed.
func (c *Client) WaitSpawn(ctx context.Context, key string) (SpawnStatus, error) {
	t := &c.spawns
	t.mu.Lock()
	if c.isClosed() { // under t.mu: Close's failAll, then its wg.Wait, come after
		t.mu.Unlock()
		return SpawnStatus{Done: true, Err: ErrClientClosed}, nil
	}
	e := t.entries[key]
	if e == nil {
		e = &spawnEntry{}
		t.entries[key] = e
	}
	if e.ch == nil {
		e.ch = make(chan spawnState, 1)
	}
	e.waited = true
	if len(e.ch) > 0 {
		delete(t.entries, key) // completed before anybody waited
	} else if e.gen != c.connGen.Load() && !e.spawning {
		t.beatNow()
	}
	if !t.beating && len(e.ch) == 0 {
		t.beating = true
		c.wg.Add(1)
		go c.heartbeat()
	}
	t.mu.Unlock()
	select {
	case st := <-e.ch:
		return stateToStatus(c, st.Action, st), nil
	case <-ctx.Done():
		t.mu.Lock()
		if t.entries[key] == e {
			delete(t.entries, key)
		}
		t.mu.Unlock()
		if len(e.ch) > 0 { // delivered just before the removal
			st := <-e.ch
			return stateToStatus(c, st.Action, st), nil
		}
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = c.CancelSpawn(cctx, key)
		return SpawnStatus{}, ctx.Err()
	}
}

// spawnKey generates a client-unique idempotency key.
func (c *Client) spawnKey() string {
	return fmt.Sprintf("s%x-%x", c.spawnEpoch, c.spawnSeq.Add(1))
}

// spawnAttempts is how many times SpawnJSON re-issues a spawn whose
// outcome is ambiguous (transport failure) before giving up.
const spawnAttempts = 3

// SpawnJSON runs a remote action through the spawn plane end to end on
// this client: spawn with a fresh idempotency key (retrying the same key
// after ambiguous transport failures — the dedupe table makes that safe
// for non-idempotent actions), deadline budget shipped from ctx, then a
// multiplexed wait. Cancelling ctx cancels the remote task best-effort.
func (c *Client) SpawnJSON(ctx context.Context, action string, arg json.RawMessage) (json.RawMessage, error) {
	key := c.spawnKey()
	var lastErr error
	for attempt := 0; attempt < spawnAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := c.SpawnAction(ctx, action, arg, key)
		if err != nil {
			lastErr = err
			c.meters.retries.Inc()
			continue
		}
		if st.Done {
			return st.Result, st.Err
		}
		st, err = c.WaitSpawn(ctx, key)
		if err != nil {
			return nil, err
		}
		return st.Result, st.Err
	}
	// Still ambiguous after every attempt: bound the server-side work.
	cctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = c.CancelSpawn(cctx, key)
	return nil, lastErr
}

// SpawnOn launches a remote action through the fault-tolerant spawn
// plane and returns a future — the distributed analogue of taskrt's
// Async. For replica failover across localities, use
// agas.SpawnRemoteCtx instead.
func SpawnOn[A, R any](ctx context.Context, c *Client, action string, arg A) *RemoteFuture[R] {
	return Launch[A, R](action, arg, func(raw json.RawMessage) (json.RawMessage, error) {
		return c.SpawnJSON(ctx, action, raw)
	})
}

// Launch marshals arg, runs spawn with it on its own goroutine and
// returns a future for the result decoded as R — the launcher behind
// SpawnOn and agas.SpawnRemoteCtx. An argument that cannot be marshalled
// resolves the future at once.
func Launch[A, R any](action string, arg A, spawn func(json.RawMessage) (json.RawMessage, error)) *RemoteFuture[R] {
	f := &RemoteFuture[R]{done: make(chan struct{})}
	raw, err := json.Marshal(arg)
	if err != nil {
		f.err = fmt.Errorf("parcel: spawn %q argument marshal: %w", action, err)
		close(f.done)
		return f
	}
	go func() {
		defer close(f.done)
		res, err := spawn(raw)
		if err != nil {
			f.err = err
			return
		}
		if len(res) > 0 {
			f.err = json.Unmarshal(res, &f.value)
		}
	}()
	return f
}
