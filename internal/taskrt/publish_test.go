package taskrt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// taskCounterFields are the workerMetrics atomics that every task feeds:
// they are written from the worker's staged block by worker.publish,
// and by nothing else on the worker side.
var taskCounterFields = map[string]bool{
	"tasksExecuted": true, "taskTimeNs": true, "overheadNs": true,
	"inlineExecuted": true, "spanMaxNs": true,
}

// structFields returns the field names of the package's struct type
// name in f, with each field's type expression.
func structFields(f *ast.File, name string) map[string]ast.Expr {
	out := map[string]ast.Expr{}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != name {
			return true
		}
		for _, fl := range ts.Type.(*ast.StructType).Fields.List {
			for _, id := range fl.Names {
				out[id.Name] = fl.Type
			}
		}
		return false
	})
	return out
}

// TestHotPathWritesOwnerLocal pins the scheduled-task path to
// owner-local memory: the task path (timeTask, execute, executeInline)
// and the future recycling path (newFuture, Release) make no atomic
// write to a workerMetrics field and record into no shared Histogram,
// apart from the taskStartNs swap and restore that the watchdog and
// the active-task counters read. Outside the readers' resets in
// RegisterCounters, the per-task counter atomics and histograms are
// written by worker.publish alone.
func TestHotPathWritesOwnerLocal(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := pkgs["taskrt"].Files
	metricsFields := structFields(files["metrics.go"], "workerMetrics")
	hists := map[string]bool{}
	for name, typ := range structFields(files["runtime.go"], "worker") {
		if sel, ok := typ.(*ast.SelectorExpr); ok && sel.Sel.Name == "Histogram" {
			hists[name] = true
		}
	}
	if len(metricsFields) == 0 || !hists["durHist"] || !hists["ovhHist"] {
		t.Fatalf("struct scan found metrics fields %d, histograms %v", len(metricsFields), hists)
	}
	hot := map[string]bool{
		"runtime.go worker.timeTask": true, "runtime.go worker.execute": true,
		"runtime.go worker.executeInline": true, "future.go newFuture": true,
		"future.go Future.Release": true, "future.go Future.release": true,
	}
	writes := map[string]bool{"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true}
	seen := map[string]bool{}
	var bad []string
	for path, f := range files {
		file := filepath.Base(path)
		for _, d := range f.Decls {
			site := file + " " + declName(d)
			seen[site] = true
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				field, ok := method.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				f, m := field.Sel.Name, method.Sel.Name
				where := fset.Position(call.Pos()).String() + " in " + site
				switch {
				case hists[f] && m == "Record":
					bad = append(bad, where+": records into shared histogram "+f)
				case site == "runtime.go worker.publish" || site == "metrics.go Runtime.RegisterCounters":
				case metricsFields[f] != nil && writes[m] && hot[site] &&
					!(site == "runtime.go worker.timeTask" && f == "taskStartNs" && (m == "Swap" || m == "Store")):
					bad = append(bad, where+": "+m+" on workerMetrics."+f+" on the task path")
				case taskCounterFields[f] && writes[m]:
					bad = append(bad, where+": "+m+" on workerMetrics."+f+" outside publish")
				}
				return true
			})
		}
	}
	for site := range hot {
		if !seen[site] {
			t.Errorf("hot-path function %q not found; update the pin", site)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("shared writes on the task path:\n%s", strings.Join(bad, "\n"))
	}
}

// hasPointers reports whether values of type t hold any pointer the GC
// must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	default:
		return false
	}
}

// TestStagingNotScanned: the per-worker histograms and the staging
// block (~31 KB) sit after the worker's last pointer field, so the GC
// stops scanning a worker before it reaches them.
func TestStagingNotScanned(t *testing.T) {
	wt := reflect.TypeFor[worker]()
	var ptrEnd uintptr
	for i := 0; i < wt.NumField(); i++ {
		if f := wt.Field(i); hasPointers(f.Type) {
			ptrEnd = f.Offset + f.Type.Size()
		}
	}
	for _, name := range []string{"durHist", "ovhHist", "stage"} {
		f, _ := wt.FieldByName(name)
		if f.Offset < ptrEnd || hasPointers(f.Type) {
			t.Errorf("worker.%s at offset %d holds pointers or sits before the last pointer field (ends at %d)", name, f.Offset, ptrEnd)
		}
	}
}

// docBlockTasks is the block size docs/COUNTERS.md states: a busy
// worker publishes once per 64 tasks, so a read lags it by at most 64.
const docBlockTasks = 64

// TestPublishInBlocks: a worker that never idles publishes its staged
// counters once per docBlockTasks tasks, not per task. The root runs
// 10 000 1 µs children in waves, each wait running them inline, so the
// only publishes are the task-count ones, plus at most one the time
// bound forces. A host that deschedules the worker mid-block stretches
// that block past the time bound, so the bound must hold in one of a
// few runs.
func TestPublishInBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows a block of 1 µs tasks past the time bound")
	}
	const waves, width, runs = 40, 250, 5
	const bound = (waves*width+docBlockTasks-1)/docBlockTasks + 1
	rt := newTestRuntime(t, 1)
	fns := make([]func() int, width)
	for i := range fns {
		fns[i] = func() int { busySpin(time.Microsecond); return 0 }
	}
	var got []int64
	for len(got) < runs {
		var n int64
		AsyncF(rt, func() int {
			m := &rt.workers[0].metrics
			before := m.publishes.Load()
			for i := 0; i < waves; i++ {
				fs := AsyncBatch(rt, fns)
				WaitAllOf(fs)
				ReleaseAll(fs)
			}
			n = m.publishes.Load() - before
			return 0
		}).Get()
		got = append(got, n)
		if n <= bound {
			t.Logf("%d publishes for %d tasks (runs: %v)", n, waves*width, got)
			return
		}
	}
	t.Fatalf("publishes for %d tasks in %d runs: %v, want <= %d in one", waves*width, runs, got, bound)
}

// TestCountersLagAndQuiesce: while one worker runs 1 µs children
// without idling, a reader outside the pool sees count/cumulative
// behind the children's own tally by at most docBlockTasks (the staged
// block plus the running task). Once the worker idles the counters are
// exact and agree with each other: the duration histogram holds one
// observation per task summing to time/cumulative, and the overhead
// histogram one per scheduled (not inline) task, within
// time/cumulative-overhead.
func TestCountersLagAndQuiesce(t *testing.T) {
	const waves, width = 40, 256
	rt, reg := newInstrumentedRuntime(t, 1)
	read := func(counter string) int64 {
		v, err := reg.Evaluate("/threads{locality#0/total}/"+counter, false)
		if err != nil {
			t.Error(err)
		}
		return v.Raw
	}
	var done atomic.Int64
	fns := make([]func() int, width)
	for i := range fns {
		fns[i] = func() int {
			busySpin(time.Microsecond)
			done.Add(1)
			return 0
		}
	}
	root := AsyncF(rt, func() int {
		for i := 0; i < waves; i++ {
			fs := AsyncBatch(rt, fns)
			WaitAllOf(fs)
			ReleaseAll(fs)
		}
		return 0
	})
	reads := 0
	for !root.Ready() {
		d := done.Load()
		if c := read("count/cumulative"); c < d-docBlockTasks {
			t.Fatalf("count/cumulative = %d with %d children done: lags by more than %d", c, d, docBlockTasks)
		}
		reads++
	}
	root.Get()
	t.Logf("%d reads while the worker was busy", reads)

	tasks := done.Load() + 1 // the children and the root
	settles(t, reg, "/threads{locality#0/total}/count/cumulative", tasks)
	w := rt.workers[0]
	durN, durSum := w.durHist.Totals()
	ovhN, ovhSum := w.ovhHist.Totals()
	inline := read("count/inline")
	if durN != tasks || durSum != read("time/cumulative") {
		t.Errorf("duration histogram N=%d sum=%d, want %d tasks summing to time/cumulative %d",
			durN, durSum, tasks, read("time/cumulative"))
	}
	if ovhN != tasks-inline || ovhSum > read("time/cumulative-overhead") {
		t.Errorf("overhead histogram N=%d sum=%d, want %d scheduled tasks within time/cumulative-overhead %d",
			ovhN, ovhSum, tasks-inline, read("time/cumulative-overhead"))
	}
}

// TestBatchWaveAllocs: the AsyncBatch → WaitAllOf → ReleaseAll steady
// state on a worker allocates only the wave's two slices (the futures
// returned and the tasks handed to the deque): every future comes back
// from the worker's free list.
func TestBatchWaveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	rt := newTestRuntime(t, 1)
	fns := make([]func() int, 256)
	for i := range fns {
		fns[i] = func() int { return 1 }
	}
	wave := func() {
		fs := AsyncBatch(rt, fns)
		WaitAllOf(fs)
		ReleaseAll(fs)
	}
	got := AsyncF(rt, func() float64 {
		wave() // fill the free list
		return testing.AllocsPerRun(20, wave)
	}).Get()
	if got > 2 {
		t.Errorf("a 256-wide wave allocates %.1f objects, want <= 2", got)
	}
}
