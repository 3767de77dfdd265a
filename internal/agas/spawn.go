package agas

// Remote-spawn routing: AGAS does not just name counters, it also
// learns which localities register each action (BindActions) and routes
// SpawnRemote calls to one of them through the parcel spawn plane. The
// router owns failover policy:
//
//   - a failure that proves the spawn never started on the chosen host
//     (open circuit breaker, dial error, unknown action, unknown spawn
//     key, full spawn table) redirects the spawn — same idempotency
//     key, next replica — and counts /remote/count/redirected;
//   - an ambiguous transport failure (the request may have arrived)
//     retries the SAME host with the SAME key, which the server's
//     dedupe table turns into exactly-once execution, and counts
//     /remote/count/retried;
//   - no replica left means a cancelled future carrying ErrNoReplica —
//     never a hang.
//
// The plane observes itself through the same counter fabric it serves:
// /runtime{locality#N/total}/remote/count/{spawned,completed,failed,
// retried,redirected,cancelled} here, plus .../orphaned on each parcel
// server (docs/COUNTERS.md).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

// ErrNoReplica reports a spawn that could not be placed: no bound
// locality registers the action, or every replica was already ruled out
// by a definitely-not-executed failure. The future resolves cancelled.
var ErrNoReplica = errors.New("agas: no replica for action")

// remoteMeters is the spawn plane's self-observation. Exactly one of
// completed/failed/cancelled fires per spawned increment, so at
// quiesce spawned == completed + failed + cancelled always holds;
// retried and redirected count extra attempts on top.
type remoteMeters struct {
	spawned    *core.RawCounter
	completed  *core.RawCounter
	failed     *core.RawCounter
	retried    *core.RawCounter
	redirected *core.RawCounter
	cancelled  *core.RawCounter
}

func newRemoteMeters(locality int64) *remoteMeters {
	mk := func(name, help string) *core.RawCounter {
		return core.NewLocalityRaw("runtime", "remote/count/"+name, locality, help, core.UnitEvents)
	}
	return &remoteMeters{
		spawned:    mk("spawned", "remote spawns launched through the resolver"),
		completed:  mk("completed", "remote spawns that returned a result"),
		failed:     mk("failed", "remote spawns that ended in an action or transport failure"),
		retried:    mk("retried", "spawn attempts re-issued to the same replica after an ambiguous failure"),
		redirected: mk("redirected", "spawn attempts moved to another replica after a definitely-not-executed failure"),
		cancelled:  mk("cancelled", "remote spawns cancelled: caller context, remote cancel, or no replica"),
	}
}

func (m *remoteMeters) all() []*core.RawCounter {
	return []*core.RawCounter{m.spawned, m.completed, m.failed, m.retried, m.redirected, m.cancelled}
}

// noopRemoteMeters absorbs accounting on resolvers that never called
// EnableRemoteCounters; the counters exist but are registered nowhere.
var noopRemoteMeters = newRemoteMeters(-1)

// EnableRemoteCounters registers the spawn plane's six
// /runtime{locality#N/total}/remote/count/* counters into reg and
// activates accounting on this resolver.
func (r *Resolver) EnableRemoteCounters(reg *core.Registry, locality int64) error {
	m := newRemoteMeters(locality)
	for _, c := range m.all() {
		if err := reg.Register(c); err != nil {
			return err
		}
	}
	r.spawnMeters.Store(m)
	return nil
}

func (r *Resolver) meters() *remoteMeters {
	if m := r.spawnMeters.Load(); m != nil {
		return m
	}
	return noopRemoteMeters
}

// ActionSpawner is the capability the router needs from a remote
// binding to place work on it — *parcel.Client provides it. A remote
// bound with a provider lacking it simply never receives spawns.
type ActionSpawner interface {
	// SpawnAction launches (or dedupes into) the spawn under key.
	SpawnAction(ctx context.Context, action string, arg json.RawMessage, key string) (parcel.SpawnStatus, error)
	// WaitSpawn waits for the spawn's terminal state.
	WaitSpawn(ctx context.Context, key string) (parcel.SpawnStatus, error)
	// CancelSpawn abandons the spawn best-effort.
	CancelSpawn(ctx context.Context, key string) error
}

// BindActions records that locality id registers the named actions, so
// SpawnRemote can route (and fail over) to it. The id must already be
// bound; binding the same action on several localities declares them
// replicas of each other.
func (r *Resolver) BindActions(id int64, actions ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, local := r.localities[id]
	_, remote := r.remotes[id]
	if !local && !remote {
		return fmt.Errorf("%w #%d", ErrUnknownLocality, id)
	}
	for _, a := range actions {
		if a == "" {
			return errors.New("agas: empty action name")
		}
		hosts := r.actions[a]
		dup := false
		for _, h := range hosts {
			if h == id {
				dup = true
				break
			}
		}
		if !dup {
			r.actions[a] = append(hosts, id)
		}
	}
	return nil
}

// ActionHosts returns the locality ids currently registering action, in
// binding order.
func (r *Resolver) ActionHosts(action string) []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]int64(nil), r.actions[action]...)
}

// spawnRoute picks the next replica for action: an untried spawner-
// capable host, preferring ones whose last counter query succeeded.
func (r *Resolver) spawnRoute(action string, tried map[int64]bool) (int64, ActionSpawner, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var fbID int64
	var fb ActionSpawner
	for _, id := range r.actions[action] {
		if tried[id] {
			continue
		}
		sp, ok := r.remotes[id].(ActionSpawner)
		if !ok {
			continue
		}
		if h := r.health[id]; h == nil || h.Healthy() {
			return id, sp, true
		}
		if fb == nil {
			fbID, fb = id, sp
		}
	}
	return fbID, fb, fb != nil
}

// redirectable reports whether err proves the spawn is NOT executing on
// the host that produced it, making same-key placement on another
// replica safe: the breaker fast-failed before sending, the dial never
// connected, the host does not know the action, its table never
// admitted the key, or it refused admission outright.
func redirectable(err error) bool {
	var de *parcel.DialError
	return errors.Is(err, parcel.ErrCircuitOpen) ||
		errors.As(err, &de) ||
		errors.Is(err, parcel.ErrActionUnknown) ||
		errors.Is(err, parcel.ErrSpawnUnknown) ||
		errors.Is(err, parcel.ErrSpawnLimit)
}

// finishSpawn books the spawn's single terminal outcome.
func finishSpawn(m *remoteMeters, res json.RawMessage, err error) (json.RawMessage, error) {
	switch {
	case err == nil:
		m.completed.Inc()
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, parcel.ErrSpawnCancelled),
		errors.Is(err, ErrNoReplica):
		m.cancelled.Inc()
	default:
		m.failed.Inc()
	}
	return res, err
}

// spawnHostAttempts bounds same-host retries of an ambiguous failure
// before the spawn gives up on that outcome entirely.
const spawnHostAttempts = 3

// runSpawn is the failover loop behind SpawnRemoteCtx: one idempotency
// key for the spawn's whole life, replicas tried at most once each.
func (r *Resolver) runSpawn(ctx context.Context, action string, arg json.RawMessage) (json.RawMessage, error) {
	m := r.meters()
	m.spawned.Inc()
	key := fmt.Sprintf("r%x-%x", r.spawnEpoch, r.spawnSeq.Add(1))
	tried := make(map[int64]bool)
	var lastErr error
	first := true
	for {
		if err := ctx.Err(); err != nil {
			return finishSpawn(m, nil, err)
		}
		id, sp, ok := r.spawnRoute(action, tried)
		if !ok {
			err := fmt.Errorf("%w %q", ErrNoReplica, action)
			if lastErr != nil {
				err = fmt.Errorf("%w %q: last replica failed: %w", ErrNoReplica, action, lastErr)
			}
			return finishSpawn(m, nil, err)
		}
		if !first {
			m.redirected.Inc()
		}
		first = false
		tried[id] = true
		res, err, redirect := r.spawnOn(ctx, m, id, sp, action, arg, key)
		if redirect {
			lastErr = err
			continue
		}
		return finishSpawn(m, res, err)
	}
}

// spawnOn drives one replica to a terminal state. redirect=true means
// the spawn provably never started there and the caller should try the
// next replica under the same key.
func (r *Resolver) spawnOn(ctx context.Context, m *remoteMeters, id int64, sp ActionSpawner, action string, arg json.RawMessage, key string) (res json.RawMessage, err error, redirect bool) {
	var lastErr error
	for attempt := 0; attempt < spawnHostAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err, false
		}
		st, err := sp.SpawnAction(ctx, action, arg, key)
		if err != nil {
			r.recordHealth(id, err, false)
			if redirectable(err) {
				return nil, err, true
			}
			if ctx.Err() != nil {
				return nil, ctx.Err(), false
			}
			// Ambiguous: the spawn op may or may not have landed.
			// Re-issuing the same key is exactly-once either way.
			lastErr = err
			m.retried.Inc()
			continue
		}
		r.recordHealth(id, nil, false)
		if !st.Done {
			st, err = sp.WaitSpawn(ctx, key)
			if err != nil {
				// ctx ended mid-wait; WaitSpawn already sent the remote
				// cancel best-effort.
				return nil, err, false
			}
		}
		if st.Err != nil {
			if redirectable(st.Err) {
				return nil, st.Err, true
			}
			return nil, st.Err, false
		}
		return st.Result, nil, false
	}
	// The ambiguity persisted through every attempt: bound whatever may
	// be running server-side, then report the last failure.
	cctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = sp.CancelSpawn(cctx, key)
	return nil, lastErr, false
}

// SpawnRemote routes a remote action spawn to a locality registering it
// and returns a future — HPX's async(locality, action) with the
// locality chosen, and failed over, by AGAS.
func SpawnRemote[A, R any](r *Resolver, action string, arg A) *parcel.RemoteFuture[R] {
	return SpawnRemoteCtx[A, R](context.Background(), r, action, arg)
}

// SpawnRemoteCtx is SpawnRemote under a caller context: the remaining
// deadline budget ships with the spawn and bounds the action body on
// the remote side, and cancelling ctx sends a best-effort remote
// cancel. Pass a taskrt scope context (Runtime.CurrentContext) to tie
// the remote task's life to the local task tree's. The router never
// leaves the future unresolved, even with every replica partitioned.
func SpawnRemoteCtx[A, R any](ctx context.Context, r *Resolver, action string, arg A) *parcel.RemoteFuture[R] {
	return parcel.Launch[A, R](action, arg, func(raw json.RawMessage) (json.RawMessage, error) {
		return r.runSpawn(ctx, action, raw)
	})
}
