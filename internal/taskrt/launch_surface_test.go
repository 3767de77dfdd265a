package taskrt

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// isTaskBody reports whether e is the type of a task body, `func() T`,
// or of a batch of them, `[]func() T`.
func isTaskBody(e ast.Expr) bool {
	if arr, ok := e.(*ast.ArrayType); ok && arr.Len == nil {
		e = arr.Elt
	}
	ft, ok := e.(*ast.FuncType)
	return ok && ft.Params.NumFields() == 0 && ft.Results.NumFields() == 1
}

// TestLaunchSurface pins the exported launch set: the package-level
// functions that take a task body. One general form per shape
// (SpawnWith, SpawnBatchWith) plus the sugar real callers use; a new
// spelling of an existing combination has to delete one to get in.
func TestLaunchSurface(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["taskrt"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			for _, p := range fd.Type.Params.List {
				if isTaskBody(p.Type) {
					got = append(got, fd.Name.Name)
					break
				}
			}
		}
	}
	sort.Strings(got)
	want := []string{"AsyncBatch", "AsyncBatchGrain", "AsyncF", "Spawn", "SpawnBatchWith", "SpawnWith"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("exported launch functions = %v, want exactly %v", got, want)
	}
}

// TestSpawnTimeoutComposes: SpawnOptions.Timeout, WithTaskDeadline and
// Ctx fold into one scope and whichever ends first drops the queued
// task; a nil Ctx with a Timeout is bounded from Background.
func TestSpawnTimeoutComposes(t *testing.T) {
	const short, long = 20 * time.Millisecond, time.Hour
	for _, tc := range []struct {
		name              string
		deadline, timeout time.Duration
		cancelCtx         bool
	}{
		{"timeout beats runtime deadline", long, short, false},
		{"runtime deadline beats timeout", short, long, false},
		{"ctx beats timeout", 0, long, true},
	} {
		opts := []Option{WithWorkers(1)}
		if tc.deadline > 0 {
			opts = append(opts, WithTaskDeadline(tc.deadline))
		}
		rt := New(opts...)
		release := gateWorkers(t, rt)
		ctx, cancel := context.WithCancel(context.Background())
		f := SpawnWith(rt, SpawnOptions{Ctx: ctx, Timeout: tc.timeout}, func() int { return 1 })
		if tc.cancelCtx {
			cancel()
		} else {
			time.Sleep(3 * short)
		}
		release()
		if err := f.Err(); !errors.Is(err, ErrCancelled) {
			t.Errorf("%s: Err() = %v, want ErrCancelled", tc.name, err)
		}
		cancel()
		rt.Shutdown()
	}
}

// TestBatchTimeout: one Timeout scope covers a whole batch — members
// still queued when it lapses are dropped and counted exactly, a batch
// that finishes in time is untouched, and non-Async policies get the
// bound per member.
func TestBatchTimeout(t *testing.T) {
	rt := newTestRuntime(t, 1)
	var ran atomic.Int64
	const n = 40
	for i, v := range GetAll(SpawnBatchWith(rt, SpawnOptions{Timeout: time.Minute}, intBodies(n, &ran))) {
		if v != i {
			t.Fatalf("in-time member %d resolved to %d", i, v)
		}
	}

	release := gateWorkers(t, rt)
	ran.Store(0)
	before := rt.Cancelled()
	late := SpawnBatchWith(rt, SpawnOptions{Timeout: 20 * time.Millisecond}, intBodies(n, &ran))
	deferred := SpawnBatchWith(rt, SpawnOptions{Policy: Deferred, Timeout: 20 * time.Millisecond}, intBodies(n, &ran))
	time.Sleep(60 * time.Millisecond)
	release()
	for i, f := range append(late, deferred...) {
		if err := f.Err(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("late member %d: Err() = %v, want ErrCancelled", i, err)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d bodies ran past the batch timeout", got)
	}
	if got := rt.Cancelled() - before; got != 2*n {
		t.Fatalf("Cancelled() grew by %d, want exactly %d", got, 2*n)
	}
}
