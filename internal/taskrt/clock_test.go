package taskrt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// declName names a declaration as "Func" or "Recv.Method", or
// "(package scope)" for anything but a function.
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return "(package scope)"
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if generic, ok := recv.(*ast.IndexExpr); ok { // Future[T]
		recv = generic.X
	}
	return recv.(*ast.Ident).Name + "." + fd.Name.Name
}

// TestHotPathClockReads pins where the package reads the clock through
// package time. nanotime (clock.go) is the one clock of the spawn,
// dispatch and wait paths, whose readings are chained so each task edge
// reads it once; time.Now and time.Since appear only at cold sites. A
// new call on the task path has to go through nanotime and the chaining
// around it instead.
func TestHotPathClockReads(t *testing.T) {
	cold := map[string]bool{
		"runtime.go New":            true, // seeds victim selection
		"metrics.go memStats.value": true, // memory counters' refresh age
	}
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hot []string
	for path, f := range pkgs["taskrt"].Files {
		file := filepath.Base(path)
		if file == "clock.go" {
			continue
		}
		for _, d := range f.Decls {
			site := file + " " + declName(d)
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" &&
					(sel.Sel.Name == "Now" || sel.Sel.Name == "Since") && !cold[site] {
					hot = append(hot, fset.Position(call.Pos()).String()+" in "+site)
				}
				return true
			})
		}
	}
	sort.Strings(hot)
	if len(hot) > 0 {
		t.Fatalf("time.Now/time.Since outside the cold sites (use nanotime):\n%s", strings.Join(hot, "\n"))
	}
}

// TestTaskTimeAddsUpToWall is the one-worker case of task + overhead +
// idle = workers × wall: with one worker busy in a root task that spawns
// and waits on children, every nanosecond of the root's wall time is
// some task's own time, so /threads/time/cumulative grows by that wall
// time. Readings are chained, not taken per edge, so nothing falls
// between the root, its waits and the children those waits run.
func TestTaskTimeAddsUpToWall(t *testing.T) {
	const n, wave = 40000, 256
	body := func() int { return 0 }
	for _, tc := range []struct {
		name  string
		tasks int64
		run   func(rt *Runtime)
	}{
		{"spawn-get", n, func(rt *Runtime) {
			for i := 0; i < n; i++ {
				f := AsyncF(rt, body)
				f.Get()
				f.Release()
			}
		}},
		{"waves", n / wave * wave, func(rt *Runtime) {
			fns := make([]func() int, wave)
			for i := range fns {
				fns[i] = body
			}
			for i := 0; i < n/wave; i++ {
				fs := AsyncBatch(rt, fns)
				WaitAllOf(fs)
				ReleaseAll(fs)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, reg := newInstrumentedRuntime(t, 1)
			read := func(counter string) int64 {
				v, err := reg.Evaluate("/threads{locality#0/total}/"+counter, false)
				if err != nil {
					t.Fatal(err)
				}
				return v.Raw
			}
			before := read("time/cumulative")
			var wall time.Duration
			AsyncF(rt, func() int {
				start := time.Now()
				tc.run(rt)
				wall = time.Since(start)
				return 0
			}).Get()
			// The root completes its future before its own time is
			// accounted; the task count is bumped after the time.
			deadline := time.Now().Add(5 * time.Second)
			for read("count/cumulative") < tc.tasks+1 {
				if time.Now().After(deadline) {
					t.Fatalf("count/cumulative stuck at %d, want %d", read("count/cumulative"), tc.tasks+1)
				}
				time.Sleep(time.Millisecond)
			}
			got := time.Duration(read("time/cumulative") - before)
			ratio := float64(got) / float64(wall)
			t.Logf("time/cumulative grew by %v over a root wall time of %v (ratio %.4f)", got, wall, ratio)
			if ratio < 0.98 || ratio > 1.02 {
				t.Fatalf("ratio %.3f, want within 2%% of 1", ratio)
			}
		})
	}
}

// TestCounterIdleCountsOpenPark: time/idle includes a park still in
// progress, as idle-rate does, and its reset restarts that park instead
// of keeping the part before the reset.
func TestCounterIdleCountsOpenPark(t *testing.T) {
	_, reg := newInstrumentedRuntime(t, 1)
	const name = "/threads{locality#0/total}/time/idle"
	time.Sleep(50 * time.Millisecond)
	beforeReset := time.Now()
	v, err := reg.Evaluate(name, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(v.Raw); got < 40*time.Millisecond {
		t.Fatalf("time/idle of a worker parked for 50ms = %v, want >= 40ms", got)
	}
	time.Sleep(20 * time.Millisecond)
	v, err = reg.Evaluate(name, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, max := time.Duration(v.Raw), time.Since(beforeReset); got < 15*time.Millisecond || got > max {
		t.Fatalf("time/idle 20ms after a reset = %v, want in [15ms, %v]", got, max)
	}
}
