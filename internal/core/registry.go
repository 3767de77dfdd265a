package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Factory creates a counter instance for a parsed full name. The registry
// passes itself so meta counters can resolve their base counters.
type Factory func(name Name, r *Registry) (Counter, error)

// Discoverer enumerates the full names of the instances a counter type
// currently supports, used to expand wildcard queries.
type Discoverer func(r *Registry) []Name

type typeEntry struct {
	info     Info
	factory  Factory
	discover Discoverer
}

// Registry holds the counter types and live counter instances of one
// locality. It is safe for concurrent use. No sampling path reads the
// instance map — handles, bind sets and the active set hold their
// counters — so one read-write lock guards it; the active set is
// published as an immutable sorted snapshot so the sampling read path
// is lock-free.
type Registry struct {
	typesMu sync.RWMutex
	types   map[string]*typeEntry

	instMu    sync.RWMutex
	instances map[string]Counter

	// activeMu serialises active-set mutation; activeSet is the mutable
	// membership map and active the published read-only snapshot: an
	// immutable, name-sorted BindSet that mutators rebuild under activeMu
	// and publish with one atomic store, so EvaluateActiveInto/
	// ResetActive/Active take no lock and samplers never contend with
	// each other or with Register. activeGen increments on every
	// published change so samplers can cache derived structures (tier
	// splits, bind sets) and rebuild only when membership actually moved.
	activeMu  sync.Mutex
	activeSet map[string]Counter
	active    atomic.Pointer[BindSet]
	activeGen atomic.Uint64

	// evalErrors counts counter evaluations that panicked and were
	// converted to StatusInvalidData, exposed as the
	// /counters{locality#0/total}/count/errors self-counter.
	evalErrors atomic.Int64

	// Sampling-cost self-observation: every metered evaluation sweep
	// (Evaluate, EvaluateActiveInto, BindSet batches)
	// books its own wall cost here, so the telemetry plane can budget
	// the very thing it spends. Exposed as the
	// /counters{locality#0/total}/cost/{eval-ns,per-counter} counters.
	costSweeps   atomic.Int64
	costCounters atomic.Int64
	costNs       atomic.Int64
	costHist     Histogram
}

// NewRegistry creates an empty registry with the meta counter families
// (/statistics/..., /arithmetics/...) pre-registered, plus the
// /counters/count/errors self-counter tracking evaluation panics.
func NewRegistry() *Registry {
	r := &Registry{
		types:     make(map[string]*typeEntry),
		instances: make(map[string]Counter),
		activeSet: make(map[string]Counter),
	}
	r.active.Store(&BindSet{})
	registerStatistics(r)
	registerArithmetics(r)
	r.MustRegister(NewLocalityFunc("counters", "count/errors", 0,
		"counter evaluations that panicked (value reported as invalid-data)", UnitEvents,
		r.evalErrors.Load, func() { r.evalErrors.Store(0) }))
	registerEvalCost(r)
	return r
}

// lookup finds a registered instance by its exact canonical full name
// without parsing it — the hot-path entry for already-known counters.
func (r *Registry) lookup(key string) (Counter, bool) {
	r.instMu.RLock()
	c, ok := r.instances[key]
	r.instMu.RUnlock()
	return c, ok
}

// EvalErrors returns the number of counter evaluations that panicked
// since creation (or the last reset of the self-counter).
func (r *Registry) EvalErrors() int64 { return r.evalErrors.Load() }

// safeValue evaluates one counter, isolating panics: a panicking Value
// yields a StatusInvalidData result for that counter only and bumps the
// registry's error self-counter, so one broken provider cannot abort a
// whole evaluation sweep.
func (r *Registry) safeValue(c Counter, reset bool) (v Value) {
	defer func() {
		if rec := recover(); rec != nil {
			r.evalErrors.Add(1)
			v = Value{Name: c.Name().String(), Time: now(), Status: StatusInvalidData}
		}
	}()
	return c.Value(reset)
}

// safeReset resets one counter, absorbing panics like safeValue.
func (r *Registry) safeReset(c Counter) {
	defer func() {
		if rec := recover(); rec != nil {
			r.evalErrors.Add(1)
		}
	}()
	c.Reset()
}

// closeCounter releases a counter that lost a registration race and will
// never be served, so factory-held resources are not leaked.
func closeCounter(c Counter) {
	switch x := c.(type) {
	case interface{ Close() error }:
		_ = x.Close()
	case interface{ Close() }:
		x.Close()
	case Startable:
		x.Stop()
	}
}

// RegisterType registers a counter type. Instances are created lazily by
// factory when a full name below this type is first queried. discover may
// be nil if the type cannot enumerate its instances.
func (r *Registry) RegisterType(info Info, factory Factory, discover Discoverer) error {
	n, err := ParseName(info.TypeName)
	if err != nil {
		return err
	}
	if n.IsFull() {
		return fmt.Errorf("core: type name %q must not carry an instance", info.TypeName)
	}
	r.typesMu.Lock()
	defer r.typesMu.Unlock()
	key := n.TypeName()
	if _, dup := r.types[key]; dup {
		return fmt.Errorf("core: counter type %q already registered", key)
	}
	r.types[key] = &typeEntry{info: info, factory: factory, discover: discover}
	return nil
}

// MustRegisterType is RegisterType that panics on error, for package
// initialization of fixed counter sets.
func (r *Registry) MustRegisterType(info Info, factory Factory, discover Discoverer) {
	if err := r.RegisterType(info, factory, discover); err != nil {
		panic(err)
	}
}

// Register adds a pre-built counter instance (typically one owned by the
// runtime that feeds it directly). The instance's type is implicitly
// registered if unknown.
func (r *Registry) Register(c Counter) error {
	name := c.Name()
	if !name.IsFull() {
		return fmt.Errorf("core: instance name %q must carry an instance part", name)
	}
	key := name.String()
	r.instMu.Lock()
	if _, dup := r.instances[key]; dup {
		r.instMu.Unlock()
		return fmt.Errorf("core: counter instance %q already registered", key)
	}
	r.instances[key] = c
	r.instMu.Unlock()
	tn := name.TypeName()
	r.typesMu.Lock()
	if _, ok := r.types[tn]; !ok {
		info := c.Info()
		if info.TypeName == "" {
			info.TypeName = tn
		}
		r.types[tn] = &typeEntry{info: info}
	}
	r.typesMu.Unlock()
	return nil
}

// MustRegister is Register that panics on error.
func (r *Registry) MustRegister(c Counter) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// Remove deletes a counter instance (and drops it from the active set).
// Handles bound to the instance keep reading it; Bind again to observe
// the removal.
func (r *Registry) Remove(fullName string) {
	r.activeMu.Lock()
	if c, ok := r.activeSet[fullName]; ok {
		delete(r.activeSet, fullName)
		r.publishActiveLocked()
		r.activeMu.Unlock()
		if s, ok := c.(Startable); ok {
			s.Stop()
		}
	} else {
		r.activeMu.Unlock()
	}
	r.instMu.Lock()
	delete(r.instances, fullName)
	r.instMu.Unlock()
}

// Get returns the counter instance for a full name, creating it through
// the registered type factory if it does not exist yet. An exact
// canonical spelling of a registered instance resolves without parsing.
func (r *Registry) Get(fullName string) (Counter, error) {
	if c, ok := r.lookup(fullName); ok {
		return c, nil
	}
	n, err := ParseName(fullName)
	if err != nil {
		return nil, err
	}
	return r.get(n)
}

func (r *Registry) get(n Name) (Counter, error) {
	key := n.String()
	if c, ok := r.lookup(key); ok {
		return c, nil
	}
	r.typesMu.RLock()
	entry := r.types[n.TypeName()]
	r.typesMu.RUnlock()
	// Parameterized names identify concrete counters even without an
	// instance part (the arithmetics family: /arithmetics/add@c1,c2).
	if !n.IsFull() && n.Parameters == "" {
		return nil, fmt.Errorf("core: %q names a counter type, not an instance", key)
	}
	if entry == nil || entry.factory == nil {
		return nil, fmt.Errorf("core: unknown counter %q", key)
	}
	c, err := entry.factory(n, r)
	if err != nil {
		return nil, err
	}
	r.instMu.Lock()
	if existing, ok := r.instances[key]; ok {
		// Lost a creation race: two goroutines resolved the same name
		// concurrently and both ran the factory. First registration
		// wins — every caller must see the same instance, or resets
		// and stateful counters would split across twins. The loser is
		// closed (if it holds resources) and discarded.
		r.instMu.Unlock()
		closeCounter(c)
		return existing, nil
	}
	r.instances[key] = c
	r.instMu.Unlock()
	return c, nil
}

// Evaluate reads one counter by full name. A panicking Counter.Value is
// isolated: the result carries StatusInvalidData and the registry's
// /counters/count/errors self-counter is incremented. Exact canonical
// names of registered instances skip name parsing entirely (see Get);
// callers on a sampling loop should prefer Bind and Handle.Evaluate,
// which skip the map lookup as well.
func (r *Registry) Evaluate(fullName string, reset bool) (Value, error) {
	start := now()
	c, err := r.Get(fullName)
	if err != nil {
		return Value{Name: fullName, Status: StatusCounterUnknown}, err
	}
	v := r.safeValue(c, reset)
	r.noteEvalCost(now().Sub(start).Nanoseconds(), 1)
	return v, nil
}

// Types returns the metadata of all registered counter types, sorted by
// type name, as shown by --list-counters.
func (r *Registry) Types() []Info {
	r.typesMu.RLock()
	infos := make([]Info, 0, len(r.types))
	for _, e := range r.types {
		infos = append(infos, e.info)
	}
	r.typesMu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].TypeName < infos[j].TypeName })
	return infos
}

// Discover expands a (possibly wildcarded) counter name into the full
// names of all matching instances: registered instances plus the instances
// enumerated by matching types' Discoverers. The result is sorted and
// deduplicated.
func (r *Registry) Discover(pattern string) ([]Name, error) {
	pn, err := ParseName(pattern)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]Name)

	r.instMu.RLock()
	for key, c := range r.instances {
		if MatchPattern(pn, c.Name()) {
			seen[key] = c.Name()
		}
	}
	r.instMu.RUnlock()
	var discoverers []Discoverer
	r.typesMu.RLock()
	for tn, e := range r.types {
		if e.discover == nil {
			continue
		}
		t, err := ParseName(tn)
		if err != nil {
			continue
		}
		if pn.Object != "*" && pn.Object != t.Object {
			continue
		}
		if !matchCounterPath(pn.Counter, t.Counter) {
			continue
		}
		discoverers = append(discoverers, e.discover)
	}
	r.typesMu.RUnlock()

	for _, d := range discoverers {
		for _, n := range d(r) {
			if MatchPattern(pn, n) {
				seen[n.String()] = n
			}
		}
	}

	names := make([]Name, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		names = append(names, seen[k])
	}
	return names, nil
}

// ---------------------------------------------------------------------------
// Active set: the HPX evaluate_active_counters / reset_active_counters API.

// ActiveGeneration returns a counter that increments every time the
// published active set changes. Samplers that derive per-tier bind sets
// or other views from the active set compare generations to rebuild
// only on real membership changes.
func (r *Registry) ActiveGeneration() uint64 { return r.activeGen.Load() }

// publishActiveLocked rebuilds the sorted immutable snapshot from the
// membership map. Caller holds activeMu.
func (r *Registry) publishActiveLocked() {
	r.activeGen.Add(1)
	snap := &BindSet{
		handles: make([]Handle, 0, len(r.activeSet)),
		names:   make([]string, 0, len(r.activeSet)),
	}
	for k := range r.activeSet {
		snap.names = append(snap.names, k)
	}
	sort.Strings(snap.names)
	for _, k := range snap.names {
		snap.handles = append(snap.handles, Handle{r: r, c: r.activeSet[k], name: k})
	}
	r.active.Store(snap)
}

// AddActive resolves the (possibly wildcarded) name and adds all matching
// counters to the active set, starting any Startable ones. It returns the
// full names added.
func (r *Registry) AddActive(pattern string) ([]string, error) {
	names, err := r.Discover(pattern)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		// Not discoverable: try to instantiate the exact name directly.
		n, perr := ParseName(pattern)
		if perr == nil && n.IsFull() && !hasWildcard(n) {
			names = []Name{n}
		} else {
			return nil, fmt.Errorf("core: no counters match %q", pattern)
		}
	}
	added := make([]string, 0, len(names))
	var started []Startable
	publish := func() {
		r.activeMu.Lock()
		r.publishActiveLocked()
		r.activeMu.Unlock()
		for _, s := range started {
			s.Start()
		}
	}
	for _, n := range names {
		c, err := r.get(n)
		if err != nil {
			publish()
			return added, err
		}
		key := n.String()
		r.activeMu.Lock()
		_, already := r.activeSet[key]
		if !already {
			r.activeSet[key] = c
		}
		r.activeMu.Unlock()
		if !already {
			if s, ok := c.(Startable); ok {
				started = append(started, s)
			}
			added = append(added, key)
		}
	}
	publish()
	return added, nil
}

// RemoveActive removes a counter from the active set, stopping it if
// Startable.
func (r *Registry) RemoveActive(fullName string) {
	r.activeMu.Lock()
	c, ok := r.activeSet[fullName]
	if ok {
		delete(r.activeSet, fullName)
		r.publishActiveLocked()
	}
	r.activeMu.Unlock()
	if ok {
		if s, ok := c.(Startable); ok {
			s.Stop()
		}
	}
}

// EvaluateActiveInto evaluates every counter in the active set into a
// caller-provided buffer, optionally resetting each as part of the same
// read. Results are ordered by name. dst is reused across samples and
// grown only when the active set outgrows its capacity, so a
// steady-state sampling loop allocates nothing; pass nil for a one-off
// read. A counter whose Value panics does not abort the sweep: its
// entry carries StatusInvalidData and the remaining counters are
// evaluated normally. The read is lock-free against the registry: it
// sweeps the published snapshot, so concurrent Register/Remove/
// AddActive never block a sampler.
func (r *Registry) EvaluateActiveInto(dst []Value, reset bool) []Value {
	return r.active.Load().EvaluateBatch(dst, reset)
}

// ResetActive resets every counter in the active set without reading it.
func (r *Registry) ResetActive() {
	for _, h := range r.active.Load().handles {
		r.safeReset(h.c)
	}
}

// Active returns the full names in the active set, sorted.
func (r *Registry) Active() []string {
	return append([]string(nil), r.active.Load().names...)
}

// StopActive stops all Startable counters in the active set and clears it.
func (r *Registry) StopActive() {
	r.activeMu.Lock()
	counters := make([]Counter, 0, len(r.activeSet))
	for _, c := range r.activeSet {
		counters = append(counters, c)
	}
	r.activeSet = make(map[string]Counter)
	r.publishActiveLocked()
	r.activeMu.Unlock()
	for _, c := range counters {
		if s, ok := c.(Startable); ok {
			s.Stop()
		}
	}
}

func hasWildcard(n Name) bool {
	if n.Object == "*" || strings.Contains("/"+n.Counter+"/", "/*/") || strings.HasSuffix(n.Counter, "/*") || n.Counter == "*" {
		return true
	}
	for _, i := range n.Instances {
		if i.Wildcard || i.Name == "*" {
			return true
		}
	}
	return false
}
