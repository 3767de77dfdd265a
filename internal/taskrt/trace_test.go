package taskrt

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTracingRecordsTasks(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.EnableTracing(0)
	fs := make([]*Future[int], 20)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int {
			busySpin(50 * time.Microsecond)
			return 0
		})
	}
	WaitAllOf(fs)
	events, dropped := traceSettles(t, rt, 20)
	if len(events) != 20 || dropped != 0 {
		t.Fatalf("events = %d dropped = %d", len(events), dropped)
	}
	for _, ev := range events {
		if ev.Worker < 0 || ev.Worker >= rt.NumWorkers() {
			t.Fatalf("bad worker id %d", ev.Worker)
		}
		if ev.Duration <= 0 {
			t.Fatalf("non-positive duration %v", ev.Duration)
		}
	}
	rt.DisableTracing()
	// Events survive disable.
	if events, _ := rt.TraceEvents(); len(events) != 20 {
		t.Fatalf("events lost at disable: %d", len(events))
	}
	// New tasks after disable are not recorded.
	AsyncF(rt, func() int { return 0 }).Get()
	if events, _ := rt.TraceEvents(); len(events) != 20 {
		t.Fatal("recording continued after disable")
	}
}

func TestTracingBufferLimit(t *testing.T) {
	rt := newTestRuntime(t, 1)
	rt.EnableTracing(5)
	fs := make([]*Future[int], 12)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int { return 0 })
	}
	WaitAllOf(fs)
	events, dropped := traceSettles(t, rt, 12)
	if len(events) != 5 {
		t.Fatalf("events = %d want 5", len(events))
	}
	if dropped != 7 {
		t.Fatalf("dropped = %d want 7", dropped)
	}
}

func TestTracingCausalFields(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.EnableTracing(0)
	f := AsyncF(rt, func() int {
		c1 := AsyncF(rt, func() int { busySpin(20 * time.Microsecond); return 1 })
		c2 := AsyncF(rt, func() int { busySpin(20 * time.Microsecond); return 2 })
		return c1.Get() + c2.Get()
	})
	if got := f.Get(); got != 3 {
		t.Fatalf("result = %d", got)
	}
	events, _ := traceSettles(t, rt, 3)
	if len(events) != 3 {
		t.Fatalf("events = %d want 3", len(events))
	}
	byID := map[int64]TraceEvent{}
	var rootID int64
	for _, ev := range events {
		if ev.ID <= 0 {
			t.Fatalf("task without identity: %+v", ev)
		}
		if _, dup := byID[ev.ID]; dup {
			t.Fatalf("duplicate task id %d", ev.ID)
		}
		byID[ev.ID] = ev
		if ev.Parent == 0 {
			rootID = ev.ID
		}
		if ev.Site == "" || !strings.HasPrefix(ev.Site, "trace_test.go:") {
			t.Fatalf("spawn site = %q, want trace_test.go:N", ev.Site)
		}
		if ev.SpawnTime.IsZero() || ev.SpawnTime.After(ev.Start) {
			t.Fatalf("spawn time %v not before start %v", ev.SpawnTime, ev.Start)
		}
	}
	if rootID == 0 {
		t.Fatal("no root task (Parent == 0)")
	}
	children := 0
	for _, ev := range events {
		if ev.ID == rootID {
			continue
		}
		if ev.Parent != rootID {
			t.Fatalf("task %d has parent %d, want root %d", ev.ID, ev.Parent, rootID)
		}
		children++
	}
	if children != 2 {
		t.Fatalf("children of root = %d want 2", children)
	}
}

// traceSettles waits up to 5 s for the trace to hold want events,
// dropped ones included, and returns it. A future completes inside its
// task's body, but the worker publishes the task's event with its
// counters after the body returns, so a waiter outside the pool may see
// every future done a moment before the last events.
func traceSettles(t *testing.T, rt *Runtime, want int) ([]TraceEvent, int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		events, dropped := rt.TraceEvents()
		if len(events)+int(dropped) >= want || time.Now().After(deadline) {
			return events, dropped
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceAgreesWithCounters: a task's trace event is published in
// the same step as its counters, so once the runtime has shut down the
// trace holds every task count/cumulative counts, and its work is
// time/cumulative to the nanosecond. A root task on two workers runs
// fib (children stolen, or run inline while their parent waits), a
// Sync child inline at the spawn point and a batch wave.
func TestTraceAgreesWithCounters(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 2)
	rt.EnableTracing(1 << 16)
	fns := make([]func() int64, 64)
	for i := range fns {
		fns[i] = func() int64 { busySpin(time.Microsecond); return 1 }
	}
	AsyncF(rt, func() int64 {
		n := fibRT(rt, 14) + Spawn(rt, Sync, func() int64 { return fibRT(rt, 8) }).Get()
		fs := AsyncBatch(rt, fns)
		WaitAllOf(fs)
		return n
	}).Get()
	rt.Shutdown()

	events, dropped := rt.TraceEvents()
	read := func(counter string) int64 {
		v, err := reg.Evaluate("/threads{locality#0/total}/"+counter, false)
		if err != nil {
			t.Fatal(err)
		}
		return v.Raw
	}
	inline := 0
	for _, ev := range events {
		if ev.Inline {
			inline++
		}
	}
	t.Logf("%d events, %d dropped, %d inline, %d stolen", len(events), dropped, inline, countSteals(events))
	if got, want := int64(len(events))+dropped, read("count/cumulative"); got != want {
		t.Errorf("trace events + dropped = %d, count/cumulative = %d", got, want)
	}
	if got, want := AnalyzeTrace(events).Work.Nanoseconds(), read("time/cumulative"); got != want {
		t.Errorf("trace work = %d ns, time/cumulative = %d ns", got, want)
	}
	if got, want := int64(inline), read("count/inline"); got != want || got == 0 {
		t.Errorf("inline events = %d, count/inline = %d (want equal and > 0)", got, want)
	}
	if got, want := int64(countSteals(events)), read("count/stolen"); got != want {
		t.Errorf("stolen events = %d, count/stolen = %d", got, want)
	}
}

// TestTracingSessionBoundary: the only worker is held mid-block, its
// first session's events staged, by a long task while EnableTracing
// starts a second session. Every event lands in the session that gave
// its task an id: the second holds exactly its own ids 1..n, the first
// keeps all of its own, the held task's included, and no id is
// duplicated or lost. A child the held task spawns in the second
// session is a root there: its parent's id belongs to the first.
func TestTracingSessionBoundary(t *testing.T) {
	const children, later = 10, 5
	rt := newTestRuntime(t, 1)
	rt.EnableTracing(0)
	first := rt.trace.Load()
	held, release := make(chan struct{}), make(chan struct{})
	root := AsyncF(rt, func() int {
		fs := make([]*Future[int], children)
		for i := range fs {
			fs[i] = AsyncF(rt, func() int { return 1 })
		}
		WaitAllOf(fs) // run inline: the worker stays mid-block
		close(held)
		<-release
		return AsyncF(rt, func() int { return 1 }).Get()
	})
	<-held
	first.mu.Lock()
	staged := children - len(first.events)
	first.mu.Unlock()
	rt.EnableTracing(0)
	fs := make([]*Future[int], later)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int { return 1 })
	}
	close(release)
	root.Get()
	WaitAllOf(fs)
	rt.Shutdown()
	t.Logf("%d of the first session's %d child events were staged at the re-enable", staged, children)

	first.mu.Lock()
	old := append([]TraceEvent(nil), first.events...)
	first.mu.Unlock()
	second, _ := rt.TraceEvents()
	for _, c := range []struct {
		name   string
		events []TraceEvent
		ids    int
	}{{"first", old, children + 1}, {"second", second, later + 1}} {
		seen := map[int64]bool{}
		for _, ev := range c.events {
			if ev.ID < 1 || ev.ID > int64(c.ids) || seen[ev.ID] {
				t.Errorf("%s session: id %d out of 1..%d or duplicated", c.name, ev.ID, c.ids)
			}
			seen[ev.ID] = true
			if c.name == "second" && ev.Parent != 0 {
				t.Errorf("second session: task %d has parent %d from the first", ev.ID, ev.Parent)
			}
		}
		if len(seen) != c.ids {
			t.Errorf("%s session holds %d distinct ids, want %d", c.name, len(seen), c.ids)
		}
	}
}

func TestTracingOffByDefault(t *testing.T) {
	rt := newTestRuntime(t, 1)
	AsyncF(rt, func() int { return 0 }).Get()
	if events, _ := rt.TraceEvents(); events != nil {
		t.Fatalf("events recorded without tracing: %d", len(events))
	}
}

func TestWriteChromeTrace(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.EnableTracing(0)
	f := AsyncF(rt, func() int {
		child := AsyncF(rt, func() int { busySpin(20 * time.Microsecond); return 1 })
		return child.Get()
	})
	f.Get()
	rt.Shutdown() // the last event is published after f completes
	events, _ := rt.TraceEvents()
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range parsed {
		ph, _ := ev["ph"].(string)
		counts[ph]++
		switch ph {
		case "X":
			if ev["ts"].(float64) < 0 || ev["dur"].(float64) <= 0 {
				t.Fatalf("malformed slice %v", ev)
			}
		case "M":
			name, _ := ev["name"].(string)
			if name != "process_name" && name != "thread_name" {
				t.Fatalf("unexpected metadata %v", ev)
			}
		case "s", "f":
			if ev["id"] == "" {
				t.Fatalf("flow event without id: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q in %v", ph, ev)
		}
	}
	if counts["X"] != len(events) {
		t.Fatalf("slices = %d, recorded = %d", counts["X"], len(events))
	}
	if counts["M"] == 0 {
		t.Fatal("no process/thread name metadata emitted")
	}
	if counts["s"] != counts["f"] {
		t.Fatalf("unbalanced flow events: %d starts, %d finishes", counts["s"], counts["f"])
	}
	// Empty trace: valid empty JSON array.
	sb.Reset()
	if err := WriteChromeTrace(&sb, nil); err != nil || strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("empty trace = %q (%v)", sb.String(), err)
	}
}
