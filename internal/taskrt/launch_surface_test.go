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
// functions that take a task body, the Option constructors and the
// SpawnOptions fields. One general form per shape (SpawnWith,
// SpawnBatchWith) plus the sugar real callers use; a new spelling of an
// existing combination, or a new knob, has to delete one to get in.
func TestLaunchSurface(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var launch, options, fields []string
	for _, f := range pkgs["taskrt"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue
				}
				for _, p := range d.Type.Params.List {
					if isTaskBody(p.Type) {
						launch = append(launch, d.Name.Name)
						break
					}
				}
				if r := d.Type.Results; r.NumFields() == 1 {
					if id, ok := r.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
						options = append(options, d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					ts, ok := sp.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "SpawnOptions" {
						continue
					}
					for _, fl := range ts.Type.(*ast.StructType).Fields.List {
						for _, n := range fl.Names {
							fields = append(fields, n.Name)
						}
					}
				}
			}
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"exported launch functions", launch, []string{"AsyncBatch", "AsyncBatchGrain", "AsyncF", "Spawn", "SpawnBatchWith", "SpawnWith"}},
		{"Option constructors", options, []string{"WithAdaptiveInlining", "WithLocality", "WithWorkers"}},
		{"SpawnOptions fields", fields, []string{"Ctx", "GrainNs", "Policy"}},
	} {
		sort.Strings(c.got)
		if strings.Join(c.got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s = %v, want exactly %v", c.what, c.got, c.want)
		}
	}
}

// TestBatchTimeout: a Ctx carrying a deadline covers a whole batch —
// members still queued when it lapses are dropped and counted exactly,
// a batch that finishes in time is untouched, and non-Async policies
// get the bound per member.
func TestBatchTimeout(t *testing.T) {
	rt := newTestRuntime(t, 1)
	var ran atomic.Int64
	const n = 40
	inTime, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, v := range GetAll(SpawnBatchWith(rt, SpawnOptions{Ctx: inTime}, intBodies(n, &ran))) {
		if v != i {
			t.Fatalf("in-time member %d resolved to %d", i, v)
		}
	}

	release := gateWorkers(t, rt)
	ran.Store(0)
	before := rt.Cancelled()
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	late := SpawnBatchWith(rt, SpawnOptions{Ctx: short}, intBodies(n, &ran))
	deferred := SpawnBatchWith(rt, SpawnOptions{Policy: Deferred, Ctx: short}, intBodies(n, &ran))
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
