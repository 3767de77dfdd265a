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
// Completion is observed by polling, but not one round trip per future:
// each Client runs a single spawn manager goroutine that folds every
// pending key into one spawn_poll op per tick, the same
// one-exchange-per-sample shape the bulk counter plane uses.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// maxSpawnWait caps the server-side spawn_poll completion wait so a
// poll can never hold a handler (and the client's serialised
// connection) hostage.
const maxSpawnWait = 2 * time.Second

// maxSpawnPollKeys bounds one spawn_poll's key list, mirroring
// maxBulkNames.
const maxSpawnPollKeys = 4096

// ---------------------------------------------------------------------------
// Server side: the keyed task table.

// spawnTask is one remote spawn living in the server's table.
type spawnTask struct {
	key    string
	action string
	cancel context.CancelFunc
	done   chan struct{}

	// Written exactly once (completeOnce) before done closes.
	completeOnce sync.Once
	result       json.RawMessage
	errMsg       string
	errCode      string

	lastTouch atomic.Int64 // unix nanos of the client's last spawn/poll/cancel
	doneAt    atomic.Int64 // unix nanos of completion; 0 while running
	orphaned  atomic.Bool
}

func (t *spawnTask) running() bool { return t.doneAt.Load() == 0 }

// complete resolves the task once; later calls (a cancelled action body
// returning after the reaper force-completed it) are no-ops.
func (t *spawnTask) complete(result json.RawMessage, errMsg, errCode string) {
	t.completeOnce.Do(func() {
		t.result = result
		t.errMsg = errMsg
		t.errCode = errCode
		t.doneAt.Store(time.Now().UnixNano())
		close(t.done)
	})
}

// state snapshots the task for the wire.
func (t *spawnTask) state() spawnState {
	st := spawnState{Key: t.key, Action: t.action, State: spawnRunning}
	select {
	case <-t.done:
		st.State = spawnDone
		st.Result = t.result
		st.Error = t.errMsg
		st.Code = t.errCode
	default:
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
	// completedCh is closed and replaced whenever any task completes —
	// the broadcast spawn_poll waits on.
	completedCh chan struct{}
}

func newSpawnTable(opts ServerOptions, orphaned *core.RawCounter) *spawnTable {
	return &spawnTable{
		opts:        opts,
		orphaned:    orphaned,
		tasks:       make(map[string]*spawnTask),
		completedCh: make(chan struct{}),
	}
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

// notifyCompleted wakes every poller blocked on any key.
func (tb *spawnTable) notifyCompleted() {
	tb.mu.Lock()
	close(tb.completedCh)
	tb.completedCh = make(chan struct{})
	tb.mu.Unlock()
}

// waitCh returns the current broadcast channel.
func (tb *spawnTable) waitCh() <-chan struct{} {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.completedCh
}

// reap is the orphan/retention sweep loop; it exits when closed closes.
func (tb *spawnTable) reap(wg *sync.WaitGroup, closed <-chan struct{}) {
	defer wg.Done()
	period := tb.opts.SpawnLease / 4
	if tb.opts.SpawnLease <= 0 || period > time.Second {
		period = time.Second
	}
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-closed:
			return
		case <-tick.C:
			tb.sweep(time.Now())
		}
	}
}

// sweep cancels orphaned running tasks and evicts completed entries past
// retention.
func (tb *spawnTable) sweep(now time.Time) {
	var orphans []*spawnTask
	tb.mu.Lock()
	for key, t := range tb.tasks {
		if t.running() {
			if tb.opts.SpawnLease > 0 && now.UnixNano()-t.lastTouch.Load() > int64(tb.opts.SpawnLease) {
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
			tb.notifyCompleted()
		}
	}
}

// spawn handles the spawn op: dedupe by key, or admit and launch.
func (s *Server) spawn(req request, _ *connState) response {
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
		st := t.state()
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
	t := &spawnTask{key: req.Key, action: req.Action, cancel: cancel, done: make(chan struct{})}
	t.lastTouch.Store(time.Now().UnixNano())
	tb.tasks[req.Key] = t
	tb.mu.Unlock()

	// The action body runs off the handler goroutine so the connection
	// stays responsive (polls, cancels, other spawns). Not on s.wg: a
	// stuck body must not wedge Close — its scope dies with baseCtx.
	go func() {
		defer cancel()
		result, err := runAction(ctx, req.Action, fn, req.Arg)
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
		tb.notifyCompleted()
	}()
	st := t.state()
	return response{Spawn: &st}
}

// spawnPoll handles the spawn_poll op: report the state of every listed
// key, waiting up to WaitMS (capped) for at least one of the running
// ones to complete first.
func (s *Server) spawnPoll(req request, _ *connState) response {
	if len(req.Keys) == 0 {
		return response{Error: "parcel: spawn_poll needs at least one key", Code: codeProtocol}
	}
	if len(req.Keys) > maxSpawnPollKeys {
		return response{Error: fmt.Sprintf("parcel: spawn_poll limited to %d keys", maxSpawnPollKeys), Code: codeProtocol}
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > maxSpawnWait {
		wait = maxSpawnWait
	}
	deadline := time.Now().Add(wait)
	for {
		states := make([]spawnState, len(req.Keys))
		anyDone := false
		ch := s.spawns.waitCh()
		for i, key := range req.Keys {
			t := s.spawns.lookup(key)
			if t == nil {
				states[i] = spawnState{Key: key, State: spawnDone,
					Error: "parcel: no spawn with key " + key, Code: codeSpawnUnknown}
				anyDone = true
				continue
			}
			states[i] = t.state()
			if states[i].State == spawnDone {
				anyDone = true
			}
		}
		remaining := time.Until(deadline)
		if anyDone || remaining <= 0 {
			return response{Spawns: states}
		}
		// Nothing resolved yet: block on the table-wide completion
		// broadcast (or the wait budget) and re-examine. The channel was
		// captured before the scan, so a completion between scan and wait
		// is not lost.
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
		case <-timer.C:
		case <-s.closed:
		}
		timer.Stop()
		select {
		case <-s.closed:
			return response{Spawns: states}
		default:
		}
	}
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
	s.spawns.notifyCompleted()
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
	// ErrSpawnUnknown reports a poll/cancel for a key the server does not
	// hold — after a server restart or retention eviction. The spawn
	// definitely is not running there; re-spawning under the same key is
	// safe.
	ErrSpawnUnknown = errors.New("parcel: unknown spawn key")
	// ErrSpawnLimit reports a refused spawn: the server's table is full.
	ErrSpawnLimit = errors.New("parcel: spawn table full")
	// ErrSpawnLost reports a spawn whose server became unreachable for
	// longer than the client poller's patience; whether it ran is
	// unknowable from this side.
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
func (c *Client) SpawnAction(ctx context.Context, action string, arg json.RawMessage, key string) (SpawnStatus, error) {
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

// PollSpawns reports the state of every key in one round trip, letting
// the server hold the request up to wait for a completion first.
func (c *Client) PollSpawns(ctx context.Context, keys []string, wait time.Duration) (map[string]SpawnStatus, error) {
	resp, err := c.roundTripContext(ctx, request{
		Op: "spawn_poll", Keys: keys, WaitMS: wait.Milliseconds(),
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]SpawnStatus, len(resp.Spawns))
	for _, st := range resp.Spawns {
		out[st.Key] = stateToStatus(c, st.Action, st)
	}
	return out, nil
}

// CancelSpawn asks the server to abandon a spawn — best effort: an
// unreachable server just means the orphan lease will reap it.
func (c *Client) CancelSpawn(ctx context.Context, key string) error {
	_, err := c.roundTripContext(ctx, request{Op: "spawn_cancel", Key: key})
	var se *ServerError
	if errors.As(err, &se) {
		// Cancelling an already-evicted spawn is success, not failure.
		return nil
	}
	return err
}

// ---------------------------------------------------------------------------
// The spawn manager: one poll loop per client multiplexing every
// pending spawn into a single spawn_poll per tick.

// spawnPollPatience is how many consecutive failed poll exchanges the
// manager tolerates before declaring every pending spawn lost — the
// never-hang backstop for futures waited on without any deadline.
const spawnPollPatience = 50

// spawnMgr tracks this client's in-flight spawns.
type spawnMgr struct {
	c *Client

	mu      sync.Mutex
	pending map[string]chan SpawnStatus // key → 1-buffered delivery channel
	running bool
	pollErr int // consecutive failed poll exchanges
}

func (c *Client) mgr() *spawnMgr {
	c.spawnMu.Lock()
	defer c.spawnMu.Unlock()
	if c.spawns == nil {
		c.spawns = &spawnMgr{c: c, pending: make(map[string]chan SpawnStatus)}
	}
	return c.spawns
}

// register enrols a key; the returned channel delivers its terminal
// status exactly once. Starts the poll loop if it is not running.
func (m *spawnMgr) register(key string) chan SpawnStatus {
	ch := make(chan SpawnStatus, 1)
	m.mu.Lock()
	m.pending[key] = ch
	if !m.running {
		m.running = true
		go m.loop()
	}
	m.mu.Unlock()
	return ch
}

// deregister abandons a key (the waiter gave up); no delivery follows.
func (m *spawnMgr) deregister(key string) {
	m.mu.Lock()
	delete(m.pending, key)
	m.mu.Unlock()
}

// snapshot returns up to maxSpawnPollKeys pending keys.
func (m *spawnMgr) snapshot() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.pending))
	for k := range m.pending {
		if len(keys) == maxSpawnPollKeys {
			break
		}
		keys = append(keys, k)
	}
	return keys
}

// deliver resolves one pending key.
func (m *spawnMgr) deliver(key string, st SpawnStatus) {
	m.mu.Lock()
	ch := m.pending[key]
	delete(m.pending, key)
	m.mu.Unlock()
	if ch != nil {
		ch <- st
	}
}

// loop polls while anything is pending, then parks (running=false).
func (m *spawnMgr) loop() {
	const pollWait = 150 * time.Millisecond
	for {
		keys := m.snapshot()
		if len(keys) == 0 {
			m.mu.Lock()
			if len(m.pending) == 0 {
				m.running = false
				m.mu.Unlock()
				return
			}
			m.mu.Unlock()
			continue
		}
		if m.c.isClosed() {
			for _, k := range keys {
				m.deliver(k, SpawnStatus{Done: true, Err: ErrClientClosed})
			}
			continue
		}
		states, err := m.c.PollSpawns(context.Background(), keys, pollWait)
		if err != nil {
			m.mu.Lock()
			m.pollErr++
			exhausted := m.pollErr >= spawnPollPatience
			m.mu.Unlock()
			if exhausted {
				// The endpoint has been unreachable for the whole patience
				// window: every pending spawn resolves as lost rather than
				// hanging a deadline-less waiter forever.
				for _, k := range keys {
					m.deliver(k, SpawnStatus{Done: true,
						Err: fmt.Errorf("%w: %v", ErrSpawnLost, err)})
				}
				m.mu.Lock()
				m.pollErr = 0
				m.mu.Unlock()
				continue
			}
			// Transient (or breaker-open fast-fail): pace the retry so an
			// open breaker does not spin the loop.
			time.Sleep(pollWait)
			continue
		}
		m.mu.Lock()
		m.pollErr = 0
		m.mu.Unlock()
		for key, st := range states {
			if st.Done {
				m.deliver(key, st)
			}
		}
	}
}

// WaitSpawn waits for the spawn under key to reach a terminal state,
// sharing the client's single multiplexed poll loop with every other
// in-flight spawn. If ctx ends first, a best-effort cancel op is sent
// and ctx's error returned. The wait itself can never hang: an endpoint
// that stays unreachable resolves the status as ErrSpawnLost.
func (c *Client) WaitSpawn(ctx context.Context, key string) (SpawnStatus, error) {
	m := c.mgr()
	ch := m.register(key)
	select {
	case st := <-ch:
		return st, nil
	case <-ctx.Done():
		m.deregister(key)
		// Drain a delivery that raced the deregistration.
		select {
		case st := <-ch:
			return st, nil
		default:
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
	f := &RemoteFuture[R]{done: make(chan struct{})}
	raw, err := json.Marshal(arg)
	if err != nil {
		f.err = fmt.Errorf("parcel: spawn %q argument marshal: %w", action, err)
		close(f.done)
		return f
	}
	go func() {
		defer close(f.done)
		res, err := c.SpawnJSON(ctx, action, raw)
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
