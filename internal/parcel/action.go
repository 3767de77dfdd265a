package parcel

// Remote actions: the parcel layer's second job besides counter access.
// HPX applications invoke registered functions ("plain actions") on any
// locality with the same syntax as local calls; here a server exposes
// named actions whose JSON-encoded argument and result travel in
// parcels, and the client side wraps the invocation in a future-shaped
// call. Together with the counter plumbing this gives the paper's
// "unified API for both parallel and distributed applications": spawn
// locally on taskrt, or on another locality through SpawnOn (spawn.go),
// and observe both through the same counters.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// ActionCtxFunc is a registered remote entry point, JSON argument in,
// JSON result out: ctx carries the spawning client's propagated deadline
// budget and cancellation (spawn ops) — a long-running action should
// observe it, so a cancelled or orphaned spawn actually stops working.
type ActionCtxFunc func(ctx context.Context, arg json.RawMessage) (any, error)

// ActionMap holds a server's registered actions. Safe for concurrent
// registration and dispatch.
type ActionMap struct {
	mu      sync.RWMutex
	actions map[string]ActionCtxFunc
}

// NewActionMap creates an empty action table.
func NewActionMap() *ActionMap {
	return &ActionMap{actions: make(map[string]ActionCtxFunc)}
}

// RegisterCtx binds a name to an untyped function; duplicate names
// error.
func (m *ActionMap) RegisterCtx(name string, fn ActionCtxFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("parcel: invalid action registration %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.actions[name]; dup {
		return fmt.Errorf("parcel: action %q already registered", name)
	}
	m.actions[name] = fn
	return nil
}

// RegisterAction adapts a typed Go function into an action: the
// argument is decoded from JSON into A, the result encoded from R.
func RegisterAction[A, R any](m *ActionMap, name string, fn func(A) (R, error)) error {
	return RegisterActionCtx(m, name, func(_ context.Context, a A) (R, error) { return fn(a) })
}

// RegisterActionCtx is RegisterAction for context-aware functions: the
// action observes its spawn's propagated deadline and cancellation.
func RegisterActionCtx[A, R any](m *ActionMap, name string, fn func(context.Context, A) (R, error)) error {
	return m.RegisterCtx(name, func(ctx context.Context, raw json.RawMessage) (any, error) {
		var arg A
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &arg); err != nil {
				return nil, fmt.Errorf("parcel: action %q argument: %w", name, err)
			}
		}
		return fn(ctx, arg)
	})
}

func (m *ActionMap) lookup(name string) ActionCtxFunc {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.actions[name]
}

// WithActions attaches an action table to a server (call before clients
// invoke; typically right after Serve).
func (s *Server) WithActions(m *ActionMap) *Server {
	s.actions.Store(m)
	return s
}

// actionPanicError marks an action body that panicked; runAction
// recovers it so bad action code can never kill a handler or the
// process.
type actionPanicError struct{ value any }

// Error implements error.
func (e *actionPanicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// runAction executes one action body panic-isolated and returns its
// JSON-encoded result. ctx carries the spawn plane's propagated budget
// and cancellation.
func runAction(ctx context.Context, name string, fn ActionCtxFunc, arg json.RawMessage) (raw json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &actionPanicError{value: r}
		}
	}()
	result, err := fn(ctx, arg)
	if err != nil {
		return nil, err
	}
	raw, err = json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("parcel: action %q result marshal: %w", name, err)
	}
	return raw, nil
}

// RemoteFuture carries an in-flight remote invocation — a SpawnOn, or an
// agas.SpawnRemoteCtx routed across replicas.
type RemoteFuture[R any] struct {
	done  chan struct{}
	value R
	err   error
}

// Get waits for the remote result.
//
// Deprecated: Get blocks unboundedly even when the caller holds a
// deadline; use GetContext so an abandoned wait is always bounded. Get
// remains safe on futures whose launch context carried a deadline (the
// future resolves when the deadline lapses), but GetContext makes the
// bound explicit at the wait site.
func (f *RemoteFuture[R]) Get() (R, error) {
	<-f.done
	return f.value, f.err
}

// GetContext waits for the remote result until ctx is done, whichever
// comes first; an abandoned wait returns ctx.Err() with R's zero value.
// Abandoning the wait does not cancel the remote work — the context the
// future was launched under governs that.
func (f *RemoteFuture[R]) GetContext(ctx context.Context) (R, error) {
	select {
	case <-f.done:
		return f.value, f.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// Err waits for the future and reports how the invocation completed:
// nil, a typed action failure (*ActionError, ErrActionUnknown), a spawn
// outcome (ErrSpawnCancelled, ErrSpawnLost, a context error,
// agas.ErrNoReplica) or a transport error.
func (f *RemoteFuture[R]) Err() error {
	<-f.done
	return f.err
}

// Ready reports whether Get would not block.
func (f *RemoteFuture[R]) Ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}
