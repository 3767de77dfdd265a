package core

import (
	"fmt"
	"sync/atomic"
)

// Handle is a compiled counter reference: the name is parsed and the
// instance resolved once at Bind time, so Evaluate is a direct interface
// call — no name parsing, no map lookup, no allocation. Handles are the
// intended read path for sampling loops; string-keyed Registry.Evaluate
// remains for ad-hoc queries.
//
// A handle pins the instance it was bound to. If the counter is later
// Removed from the registry the handle keeps reading the detached
// instance; re-Bind to observe removals. The zero Handle is unbound and
// evaluates to StatusCounterUnknown.
type Handle struct {
	r    *Registry
	c    Counter
	name string
}

// Bind resolves a full counter name against the registry once, creating
// the instance through its type factory if needed, and returns a Handle
// for repeated evaluation.
func (r *Registry) Bind(fullName string) (Handle, error) {
	c, err := r.Get(fullName)
	if err != nil {
		return Handle{r: r, name: fullName}, err
	}
	return Handle{r: r, c: c, name: c.Name().String()}, nil
}

// Valid reports whether the handle is bound to a live counter instance.
func (h Handle) Valid() bool { return h.c != nil }

// Name returns the canonical full name the handle was bound to (or the
// requested name, for an unbound handle).
func (h Handle) Name() string { return h.name }

// Counter returns the bound instance, or nil for an unbound handle.
func (h Handle) Counter() Counter { return h.c }

// Evaluate reads the bound counter, optionally resetting it as part of
// the same read. Panics in the counter are isolated exactly as in
// Registry.Evaluate (StatusInvalidData + error self-counter). An
// unbound handle yields StatusCounterUnknown. Allocation-free at steady
// state.
func (h Handle) Evaluate(reset bool) Value {
	if h.c == nil {
		return Value{Name: h.name, Status: StatusCounterUnknown}
	}
	return h.r.safeValue(h.c, reset)
}

// BindSet is a fixed, ordered set of counter handles bound once and
// evaluated together into a caller-provided buffer — the local analogue
// of the parcel plane's EvaluateBulk. Results keep bind order.
type BindSet struct {
	handles []Handle
	names   []string

	// costNs, when non-nil (EnableCostMetering), holds a per-handle EWMA
	// of evaluation cost in nanoseconds — the attribution the budgeted
	// sampler uses to demote the one expensive counter instead of its
	// whole tier (cost.go).
	costNs []atomic.Int64
}

// BindSet compiles a list of full counter names into a BindSet. Every
// name must resolve; on error the set built so far is discarded. Use
// BindSetLenient to keep unresolved names as StatusCounterUnknown
// placeholders instead.
func (r *Registry) BindSet(fullNames []string) (*BindSet, error) {
	return r.bindSet(fullNames, false)
}

// BindSetLenient compiles a list of full counter names, keeping names
// that fail to resolve as unbound handles that evaluate to
// StatusCounterUnknown. This is what the parcel server uses so one bad
// name in a bulk subscription degrades that slot, not the whole set.
func (r *Registry) BindSetLenient(fullNames []string) *BindSet {
	s, _ := r.bindSet(fullNames, true)
	return s
}

// bindSet is the shared constructor; lenient keeps a name that fails to
// resolve as an unbound handle instead of failing the set.
func (r *Registry) bindSet(fullNames []string, lenient bool) (*BindSet, error) {
	s := &BindSet{
		handles: make([]Handle, len(fullNames)),
		names:   make([]string, len(fullNames)),
	}
	for i, fn := range fullNames {
		h, err := r.Bind(fn)
		if err != nil && !lenient {
			return nil, fmt.Errorf("core: bind %q: %w", fn, err)
		}
		s.handles[i] = h
		s.names[i] = h.Name()
	}
	return s, nil
}

// Len returns the number of counters in the set.
func (s *BindSet) Len() int { return len(s.handles) }

// Names returns the canonical full names in bind order. The slice is
// shared with the set; callers must not modify it.
func (s *BindSet) Names() []string { return s.names }

// Handle returns the i-th handle in bind order.
func (s *BindSet) Handle(i int) Handle { return s.handles[i] }

// EvaluateBatch evaluates every counter in the set into dst, reusing its
// backing array when it has capacity, and returns the filled slice in
// bind order. With a pre-grown dst a steady-state sampling loop
// allocates nothing. Pass nil to let the first call size the buffer.
// The sweep's wall cost is metered into /counters{...}/cost/*.
func (s *BindSet) EvaluateBatch(dst []Value, reset bool) []Value {
	if cap(dst) < len(s.handles) {
		dst = make([]Value, len(s.handles))
	} else {
		dst = dst[:len(s.handles)]
	}
	start := now()
	if s.costNs != nil {
		// Per-handle attribution: clock reads are chained (each slot's
		// end is the next slot's start), so the whole sweep pays one
		// extra clock read per counter, not two.
		prev := start
		for i := range s.handles {
			dst[i] = s.handles[i].Evaluate(reset)
			t := now()
			EWMAUpdate(&s.costNs[i], t.Sub(prev).Nanoseconds())
			prev = t
		}
		if len(s.handles) > 0 {
			if r := s.handles[0].r; r != nil {
				r.noteEvalCost(prev.Sub(start).Nanoseconds(), len(s.handles))
			}
		}
		return dst
	}
	for i := range s.handles {
		dst[i] = s.handles[i].Evaluate(reset)
	}
	if len(s.handles) > 0 {
		if r := s.handles[0].r; r != nil {
			r.noteEvalCost(now().Sub(start).Nanoseconds(), len(s.handles))
		}
	}
	return dst
}
