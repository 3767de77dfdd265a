package agas

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestEvaluateAcrossBulkGrouping(t *testing.T) {
	r := NewResolver()
	l0 := NewLocality(0, "local")
	if err := r.Bind(l0); err != nil {
		t.Fatal(err)
	}
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	l0.Registry().MustRegister(c)
	c.Add(5)

	bp := &flakyProvider{v: core.Value{Raw: 9, Status: core.StatusValid}}
	if err := r.BindRemote(2, bp); err != nil {
		t.Fatal(err)
	}
	plain := &flakyProvider{v: core.Value{Raw: 3, Status: core.StatusValid}}
	if err := r.BindRemote(4, plain); err != nil {
		t.Fatal(err)
	}

	// Interleaved on purpose: three names for remote 2 must collapse into
	// ONE EvaluateBulk call while keeping input order.
	names := []string{
		"/threads{locality#2/worker-thread#0}/count/cumulative",
		"/threads{locality#0/total}/count/cumulative",
		"/threads{locality#2/worker-thread#1}/count/cumulative",
		"/threads{locality#4/total}/count/cumulative",
		"/threads{locality#2/worker-thread#2}/count/cumulative",
	}
	vals := r.EvaluateAcross(names, false)
	if bp.calls != 1 || plain.calls != 1 {
		t.Fatalf("remotes called %d and %d times, want 1 each", bp.calls, plain.calls)
	}
	if len(bp.lastNames) != 3 {
		t.Fatalf("exchange carried %d names, want 3: %v", len(bp.lastNames), bp.lastNames)
	}
	for i, v := range vals {
		if v.Name != names[i] {
			t.Fatalf("result %d is %q, want %q (order lost)", i, v.Name, names[i])
		}
	}
	for _, i := range []int{0, 2, 4} {
		if vals[i].Raw != 9 || !vals[i].Valid() {
			t.Fatalf("remote-2 slot %d = %+v", i, vals[i])
		}
	}
	if vals[1].Raw != 5 || vals[3].Raw != 3 {
		t.Fatalf("local / remote-4 slots = %+v / %+v", vals[1], vals[3])
	}
	h, _ := r.Health(2)
	if !h.Healthy() || h.Successes != 3 {
		t.Fatalf("bulk health = %+v, want 3 successes", h)
	}
}

// TestEvaluateAcrossBulkFallback: a failed or malformed exchange is not
// retried name by name — the locality's group becomes gaps after one
// exchange, with one Health failure per name.
func TestEvaluateAcrossBulkFallback(t *testing.T) {
	r := NewResolver()
	bp := &flakyProvider{v: core.Value{Raw: 7, Status: core.StatusValid}, fail: true}
	if err := r.BindRemote(1, bp); err != nil {
		t.Fatal(err)
	}
	names := []string{
		"/threads{locality#1/worker-thread#0}/count/cumulative",
		"/threads{locality#1/worker-thread#1}/count/cumulative",
	}
	assertGaps := func(what string, calls int, failures int64, lastErr string) {
		t.Helper()
		vals := r.EvaluateAcross(names, false)
		if bp.calls != calls {
			t.Fatalf("%s: %d exchanges in all, want %d", what, bp.calls, calls)
		}
		for i, v := range vals {
			if v.Valid() || v.Name != names[i] {
				t.Fatalf("%s: slot %d = %+v, want a named gap", what, i, v)
			}
		}
		h, _ := r.Health(1)
		if h.Failures != failures || h.Consecutive != int(failures) || !strings.Contains(h.LastError, lastErr) {
			t.Fatalf("%s: health = %+v, want %d failures ending in %q", what, h, failures, lastErr)
		}
	}
	assertGaps("failed exchange", 1, 2, "flaky: endpoint down")
	// A malformed (short) reply is treated the same as a failure.
	bp.fail, bp.short = false, true
	assertGaps("short reply", 2, 4, "answered 1 values for 2 names")
}

func TestEvaluateAcrossBulkGapsAndHealth(t *testing.T) {
	r := NewResolver()
	bp := &flakyProvider{v: core.Value{Raw: 1, Status: core.StatusValid}}
	if err := r.BindRemote(6, bp); err != nil {
		t.Fatal(err)
	}
	names := []string{"/threads{locality#6/total}/count/cumulative"}

	// Stale values flow through but count against health.
	bp.stale = true
	vals := r.EvaluateAcross(names, false)
	if vals[0].Status != core.StatusStale || vals[0].Raw != 1 {
		t.Fatalf("stale slot = %+v", vals[0])
	}
	h, _ := r.Health(6)
	if h.Healthy() || h.Failures != 1 {
		t.Fatalf("health after stale bulk = %+v", h)
	}

	// Unknown-counter gaps inside an otherwise-successful bulk reply are
	// per-name failures, not set-wide ones.
	bp.stale = false
	bp.v = core.Value{Status: core.StatusCounterUnknown}
	vals = r.EvaluateAcross(names, false)
	if vals[0].Valid() || vals[0].Name != names[0] {
		t.Fatalf("unknown slot = %+v", vals[0])
	}
	h, _ = r.Health(6)
	if h.Failures != 2 {
		t.Fatalf("health after unknown gap = %+v", h)
	}
}

func TestEvaluateAcrossDeduplicatesNames(t *testing.T) {
	r := NewResolver()

	// Local counter with destructive (reset) read semantics: if duplicates
	// were evaluated independently, the second read would see 0.
	l0 := NewLocality(0, "local")
	if err := r.Bind(l0); err != nil {
		t.Fatal(err)
	}
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	l0.Registry().MustRegister(c)
	c.Add(5)

	bp := &flakyProvider{v: core.Value{Raw: 9, Status: core.StatusValid}}
	if err := r.BindRemote(2, bp); err != nil {
		t.Fatal(err)
	}

	local := "/threads{locality#0/total}/count/cumulative"
	remote := "/threads{locality#2/total}/count/cumulative"
	names := []string{remote, local, remote, remote, local}
	vals := r.EvaluateAcross(names, true)

	// The wire carried the remote name exactly once.
	if bp.calls != 1 {
		t.Fatalf("bulk remote called %d times, want 1", bp.calls)
	}
	if len(bp.lastNames) != 1 || bp.lastNames[0] != remote {
		t.Fatalf("exchange carried %v, want exactly [%s]", bp.lastNames, remote)
	}

	// Every occurrence got the single evaluation's result — including the
	// duplicates of the reset local read, which must not observe the reset.
	for _, i := range []int{0, 2, 3} {
		if vals[i].Raw != 9 || !vals[i].Valid() {
			t.Fatalf("remote slot %d = %+v", i, vals[i])
		}
	}
	for _, i := range []int{1, 4} {
		if vals[i].Raw != 5 || !vals[i].Valid() {
			t.Fatalf("local slot %d = %+v (duplicate observed the reset?)", i, vals[i])
		}
	}
	for i, v := range vals {
		if v.Name != names[i] {
			t.Fatalf("result %d is %q, want %q (order lost)", i, v.Name, names[i])
		}
	}
	// One reset applied exactly once.
	if c.Load() != 0 {
		t.Fatal("reset did not apply")
	}
	// Health charged one success for the one exchange, not three.
	h, _ := r.Health(2)
	if h.Successes != 1 {
		t.Fatalf("bulk health = %+v, want exactly 1 success", h)
	}
}
