// Package agas is a miniature Active Global Address Space: it names
// localities (the HPX term for processes/nodes), holds each locality's
// counter registry, and resolves full counter names — including their
// locality#N instance prefix — to the owning locality. This is the
// mechanism behind the paper's claim that "any Performance Counter can
// be accessed remotely (from a different locality) or locally": the
// name itself carries the location.
//
// AGAS operations are themselves counted and exposed as
// /agas{locality#L/total}/count/{bind,resolve,unbind} counters.
package agas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ErrUnknownLocality is the typed failure for a resolution against an
// id that is not (or no longer) bound — what an Unbind racing an
// in-flight EvaluateAcross or SpawnRemote surfaces.
var ErrUnknownLocality = errors.New("agas: unknown locality")

// Locality is one participant: an id, a human-readable name and a
// counter registry.
type Locality struct {
	id       int64
	name     string
	registry *core.Registry

	binds    *core.RawCounter
	resolves *core.RawCounter
	unbinds  *core.RawCounter
}

// NewLocality creates a locality with a fresh registry and its AGAS
// counters registered.
func NewLocality(id int64, name string) *Locality {
	l := &Locality{id: id, name: name, registry: core.NewRegistry()}
	mk := func(op, help string) *core.RawCounter {
		c := core.NewLocalityRaw("agas", "count/"+op, id, help, core.UnitEvents)
		l.registry.MustRegister(c)
		return c
	}
	l.binds = mk("bind", "names bound into AGAS")
	l.resolves = mk("resolve", "name resolutions served")
	l.unbinds = mk("unbind", "names removed from AGAS")
	return l
}

// ID returns the locality id used in counter instance names.
func (l *Locality) ID() int64 { return l.id }

// Name returns the locality's label.
func (l *Locality) Name() string { return l.name }

// Registry returns the locality's counter registry.
func (l *Locality) Registry() *core.Registry { return l.registry }

// CounterProvider is the capability AGAS needs to read counters on a
// locality in another process — *parcel.Client provides it through the
// evaluate_bulk wire op. In-process localities are read from their
// registries directly.
type CounterProvider interface {
	// EvaluateBulk reads the named counters in one exchange, results in
	// input order, optionally resetting each as part of the same read.
	EvaluateBulk(fullNames []string, reset bool) ([]core.Value, error)
}

// Health is the observed condition of one remote endpoint, updated on
// every routed counter query. Stale answers (core.StatusStale) count as
// failures: the transport delivered a cached value, not the endpoint.
type Health struct {
	// Consecutive is the current run of failed queries; 0 means the last
	// query succeeded.
	Consecutive int
	// Successes and Failures count queries over the endpoint's lifetime.
	Successes, Failures int64
	// LastError describes the most recent failure.
	LastError string
	// LastSuccess and LastFailure timestamp the most recent outcomes.
	LastSuccess, LastFailure time.Time
}

// Healthy reports whether the endpoint answered its last query.
func (h Health) Healthy() bool { return h.Consecutive == 0 }

// Resolver maps locality ids to localities (in-process) and remote
// counter providers (other processes, reached through package parcel),
// and tracks each remote endpoint's health.
type Resolver struct {
	mu         sync.RWMutex
	localities map[int64]*Locality
	remotes    map[int64]CounterProvider
	health     map[int64]*Health
	// actions maps an action name to the locality ids registering it —
	// the placement table SpawnRemote routes and fails over with
	// (spawn.go).
	actions map[string][]int64

	// The remote-spawn plane's self-observation (spawn.go).
	spawnMeters atomic.Pointer[remoteMeters]
	spawnSeq    atomic.Int64
	spawnEpoch  int64
}

// NewResolver creates an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{
		localities: make(map[int64]*Locality),
		remotes:    make(map[int64]CounterProvider),
		health:     make(map[int64]*Health),
		actions:    make(map[string][]int64),
		spawnEpoch: time.Now().UnixNano(),
	}
}

// BindRemote registers a remote locality by its counter provider
// (typically a *parcel.Client). The id must not collide with a local or
// remote binding.
func (r *Resolver) BindRemote(id int64, p CounterProvider) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.localities[id]; dup {
		return fmt.Errorf("agas: locality#%d already bound locally", id)
	}
	if _, dup := r.remotes[id]; dup {
		return fmt.Errorf("agas: locality#%d already bound remotely", id)
	}
	r.remotes[id] = p
	r.health[id] = &Health{}
	return nil
}

// Health returns the recorded condition of a remote endpoint; ok is
// false for ids never bound via BindRemote.
func (r *Resolver) Health(id int64) (Health, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h := r.health[id]
	if h == nil {
		return Health{}, false
	}
	return *h, true
}

// recordHealth folds one remote query outcome into the endpoint's
// health record.
func (r *Resolver) recordHealth(id int64, err error, stale bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.health[id]
	if h == nil {
		return
	}
	if err == nil && !stale {
		h.Consecutive = 0
		h.Successes++
		h.LastSuccess = time.Now()
		return
	}
	h.Consecutive++
	h.Failures++
	h.LastFailure = time.Now()
	if err != nil {
		h.LastError = err.Error()
	} else {
		h.LastError = "stale value served (endpoint unreachable)"
	}
}

// Bind registers a locality; rebinding an id is an error.
func (r *Resolver) Bind(l *Locality) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.localities[l.id]; dup {
		return fmt.Errorf("agas: locality#%d already bound", l.id)
	}
	r.localities[l.id] = l
	l.binds.Inc()
	return nil
}

// Unbind removes a locality — local or remote — together with any
// action placements it registered. Queries and spawns already in flight
// against it complete or fail with typed errors (ErrUnknownLocality,
// ErrNoReplica); new ones no longer route there.
func (r *Resolver) Unbind(id int64) {
	r.mu.Lock()
	l := r.localities[id]
	delete(r.localities, id)
	delete(r.remotes, id)
	delete(r.health, id)
	for action, hosts := range r.actions {
		kept := hosts[:0]
		for _, h := range hosts {
			if h != id {
				kept = append(kept, h)
			}
		}
		if len(kept) == 0 {
			delete(r.actions, action)
		} else {
			r.actions[action] = kept
		}
	}
	r.mu.Unlock()
	if l != nil {
		l.unbinds.Inc()
	}
}

// Resolve returns the locality with the given id.
func (r *Resolver) Resolve(id int64) (*Locality, error) {
	r.mu.RLock()
	l := r.localities[id]
	r.mu.RUnlock()
	if l == nil {
		return nil, fmt.Errorf("%w #%d", ErrUnknownLocality, id)
	}
	l.resolves.Inc()
	return l, nil
}

// Localities returns the bound ids in unspecified order.
func (r *Resolver) Localities() []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]int64, 0, len(r.localities))
	for id := range r.localities {
		ids = append(ids, id)
	}
	return ids
}

// LocalityOf extracts the owning locality id from a full counter name:
// the leading "locality#N" instance element. Statistics meta counters
// delegate to their embedded base counter.
func LocalityOf(n core.Name) (int64, error) {
	if n.BaseCounter != "" {
		base, err := core.ParseName(n.BaseCounter)
		if err != nil {
			return 0, err
		}
		return LocalityOf(base)
	}
	if len(n.Instances) == 0 || n.Instances[0].Name != "locality" || !n.Instances[0].HasIndex {
		return 0, fmt.Errorf("agas: counter %q carries no locality#N prefix", n)
	}
	return n.Instances[0].Index, nil
}

// EvaluateCounter resolves a full counter name across localities and
// evaluates it on its owner — local access and access to any other
// locality in the process are indistinguishable, as in HPX. It fails for
// an unparsable name, an unknown locality, a failed exchange with a
// remote owner and a counter its owner does not have.
func (r *Resolver) EvaluateCounter(fullName string, reset bool) (core.Value, error) {
	vals, errs := r.evaluate([]string{fullName}, reset)
	return vals[0], errs[0]
}

// EvaluateAcross evaluates one counter per full name, across however
// many localities the names resolve to, and never fails the batch: a
// name whose locality is down or unknown yields a gap — a Value whose
// Status says why (stale, unknown, invalid) — so aggregation degrades
// to partial results instead of erroring because one locality died.
// Each remote locality is read in one exchange; results keep input
// order.
//
// Repeated full names (same spelling) are de-duplicated before routing:
// the counter is evaluated once and the result fanned out to every
// occurrence, so one careless caller cannot double-charge the wire — or,
// with reset, read-and-reset the same counter twice in one batch.
func (r *Resolver) EvaluateAcross(fullNames []string, reset bool) []core.Value {
	slot := make([]int, len(fullNames)) // input index → index into distinct
	index := make(map[string]int, len(fullNames))
	var distinct []string
	for i, name := range fullNames {
		j, seen := index[name]
		if !seen {
			j = len(distinct)
			index[name] = j
			distinct = append(distinct, name)
		}
		slot[i] = j
	}
	vals, _ := r.evaluate(distinct, reset)
	out := make([]core.Value, len(fullNames))
	for i, j := range slot {
		out[i] = vals[j]
	}
	return out
}

// evaluate reads distinct full names grouped by owning locality: one
// EvaluateBulk per remote locality, registry reads for in-process ones.
// It never fails as a whole; errs[i] says why vals[i] is a gap — an
// unparsable name, an unknown locality, a failed exchange (recorded as
// one Health failure per name) or a counter its locality does not have.
func (r *Resolver) evaluate(names []string, reset bool) (vals []core.Value, errs []error) {
	vals = make([]core.Value, len(names))
	errs = make([]error, len(names))
	groups := make(map[int64][]int) // locality id → indices of the names it owns
	for i, name := range names {
		n, err := core.ParseName(name)
		var id int64
		if err == nil {
			id, err = LocalityOf(n)
		}
		if err != nil {
			vals[i], errs[i] = core.Value{Name: name, Status: core.StatusCounterUnknown}, err
			continue
		}
		groups[id] = append(groups[id], i)
	}
	for id, idxs := range groups {
		r.mu.RLock()
		remote := r.remotes[id]
		r.mu.RUnlock()
		if remote == nil {
			for _, i := range idxs {
				vals[i], errs[i] = r.evaluateLocal(id, names[i], reset)
			}
			continue
		}
		group := make([]string, len(idxs))
		for j, i := range idxs {
			group[j] = names[i]
		}
		got, err := remote.EvaluateBulk(group, reset)
		if err == nil && len(got) != len(group) {
			err = fmt.Errorf("agas: locality#%d answered %d values for %d names", id, len(got), len(group))
		}
		for j, i := range idxs {
			v := core.Value{Name: names[i], Status: core.StatusCounterUnknown}
			if err == nil {
				if v = got[j]; v.Name == "" {
					v.Name = names[i]
				}
				errs[i] = valueErr(v)
			} else {
				errs[i] = err
			}
			vals[i] = v
			r.recordHealth(id, errs[i], v.Status == core.StatusStale)
		}
	}
	return vals, errs
}

// evaluateLocal reads one counter from an in-process locality.
func (r *Resolver) evaluateLocal(id int64, fullName string, reset bool) (core.Value, error) {
	l, err := r.Resolve(id)
	if err != nil {
		return core.Value{Name: fullName, Status: core.StatusCounterUnknown}, err
	}
	return l.registry.Evaluate(fullName, reset)
}

// valueErr maps a gap in a remote reply onto the error its health record
// carries: unknown/invalid slots count as failures with a descriptive
// LastError, valid and stale ones do not (stale is handled by the
// caller's stale flag).
func valueErr(v core.Value) error {
	switch v.Status {
	case core.StatusCounterUnknown:
		return fmt.Errorf("agas: counter %q unknown on its locality", v.Name)
	case core.StatusInvalidData:
		return fmt.Errorf("agas: counter %q answered invalid data", v.Name)
	default:
		return nil
	}
}
