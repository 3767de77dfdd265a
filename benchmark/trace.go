package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in this directory: a span is recorded around
// each call the benchmark makes into a layer. Spans inside the layers
// are a later change.

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent is the span that caused this one (0
// for a root) and Op groups the spans of one operation.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spansKept bounds the spans retained per layer: the kernels make
// millions of calls, so every call is counted and timed in the layer's
// totals but only the first spansKept are kept for the dump.
const spansKept = 2048

// layerStat is the running total for one span name.
type layerStat struct {
	t     *tracer
	name  string
	calls atomic.Int64 // spans observed
	units atomic.Int64 // work items those spans covered (children of a batch)
	ns    atomic.Int64
}

// tracer collects spans in memory and writes them out once at the end.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	layers map[string]*layerStat
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: make(map[string]*layerStat)}
}

// layer returns the accumulator for name; hot paths resolve it once.
func (t *tracer) layer(name string) *layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layers[name]
	if l == nil {
		l = &layerStat{t: t, name: name}
		t.layers[name] = l
	}
	return l
}

// observe records one span covering units work items and returns its id.
func (l *layerStat) observe(start, end time.Time, parent, op, units int64) int64 {
	l.units.Add(units)
	l.ns.Add(int64(end.Sub(start)))
	if l.calls.Add(1) > spansKept {
		return 0
	}
	id := l.t.nextID.Add(1)
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, span{ID: id, Parent: parent, Op: op, Name: l.name,
		Start: int64(start.Sub(l.t.epoch)), End: int64(end.Sub(l.t.epoch))})
	l.t.mu.Unlock()
	return id
}

// meanNs is the mean time per work item.
func (l *layerStat) meanNs() float64 {
	u := l.units.Load()
	if u == 0 {
		return 0
	}
	return float64(l.ns.Load()) / float64(u)
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once, and a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSummary is one row of the dump's ledger.
type layerSummary struct {
	Name   string  `json:"name"`
	Calls  int64   `json:"calls"`
	Units  int64   `json:"units"`
	MeanNs float64 `json:"mean_ns_per_unit"`
	SelfNs int64   `json:"self_ns_of_kept_spans"`
}

// write dumps the ledger and the kept spans as JSON under dir.
func (t *tracer) write(dir, file string) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	var rows []layerSummary
	self := selfTimes(spans)
	selfByName := make(map[string]int64)
	for _, s := range spans {
		selfByName[s.Name] += self[s.ID]
	}
	for _, l := range t.layers {
		rows = append(rows, layerSummary{Name: l.name, Calls: l.calls.Load(),
			Units: l.units.Load(), MeanNs: l.meanNs(), SelfNs: selfByName[l.name]})
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	b, err := json.Marshal(struct {
		Layers []layerSummary `json:"layers"`
		Spans  []span         `json:"spans"`
	}{rows, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
