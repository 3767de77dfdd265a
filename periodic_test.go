package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// receivesFromC reports whether a select case receives from a `.C`
// field — a time.Ticker's or time.Timer's channel.
func receivesFromC(comm ast.Stmt) bool {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		e = s.Rhs[0]
	default:
		return false
	}
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	sel, ok := u.X.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "C"
}

// receivesFromAfter reports whether n receives from a time.After call
// anywhere inside it.
func receivesFromAfter(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			if call, ok := u.X.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					pkg, ok := sel.X.(*ast.Ident)
					found = found || ok && pkg.Name == "time" && sel.Sel.Name == "After"
				}
			}
		}
		return !found
	})
	return found
}

// ticks reports whether a function body runs its own periodic loop: it
// calls time.NewTicker or time.Tick, or it loops on a clock — a for
// whose body opens with a select over a timer channel, or that paces
// itself anywhere in its body with time.After. A loop that looks for
// work first and only parks on a timer when it finds none (the task
// runtime's help-wait) is not that shape.
func ticks(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" &&
					(sel.Sel.Name == "NewTicker" || sel.Sel.Name == "Tick") {
					found = true
				}
			}
		case *ast.RangeStmt:
			if receivesFromAfter(n.Body) {
				found = true
			}
		case *ast.ForStmt:
			if receivesFromAfter(n.Body) {
				found = true
			}
			if len(n.Body.List) == 0 {
				break
			}
			if sel, ok := n.Body.List[0].(*ast.SelectStmt); ok {
				for _, c := range sel.Body.List {
					if cc := c.(*ast.CommClause); cc.Comm != nil && receivesFromC(cc.Comm) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// callsEvery reports whether a function body starts a core.Every loop.
func callsEvery(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				pkg, ok := fn.X.(*ast.Ident)
				found = found || ok && pkg.Name == "core" && fn.Sel.Name == "Every"
			case *ast.Ident: // inside package core
				found = found || fn.Name == "Every"
			}
		}
		return !found
	})
	return found
}

// TestOnePeriodicLoop pins where periodic work is scheduled: every
// background loop under internal/ and cmd/ runs on core.Every, so the
// only functions that drive a clock themselves are Every's own loop,
// the parcel client's heartbeat (it starts and stops with pending
// waits, and each beat is a blocking round trip) and Runtime.Shutdown's
// re-notify handshake. A new hand-rolled ticker loop fails here. It
// also pins who calls core.Every: the apex engine, which runs every
// measure→decide→act policy (the budget controller, the watchdog, the
// idle throttle), and the sampling and housekeeping loops that only
// measure or sweep.
func TestOnePeriodicLoop(t *testing.T) {
	var got, every []string
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil {
					name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
				}
				name = filepath.ToSlash(path) + " " + name
				if ticks(fd.Body) {
					got = append(got, name)
				}
				if callsEvery(fd.Body) {
					every = append(every, name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(got)
	want := []string{
		"internal/core/every.go (*Ticker).run",
		"internal/parcel/spawn.go (*Client).heartbeat",
		"internal/taskrt/runtime.go (*Runtime).Shutdown",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("functions running their own periodic loop:\n  %s\nwant exactly:\n  %s\nschedule periodic work with core.Every",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	sort.Strings(every)
	wantEvery := []string{
		"internal/apex/apex.go (*Engine).every",
		"internal/core/statistics.go (*StatisticsCounter).Start",
		"internal/parcel/spawn.go (*spawnTable).reaper",
		"internal/perfcli/perfcli.go (*Options).Start",
		"internal/telemetry/telemetry.go (*Collector).Start",
	}
	if strings.Join(every, "\n") != strings.Join(wantEvery, "\n") {
		t.Fatalf("functions calling core.Every:\n  %s\nwant exactly:\n  %s\na measure→decide→act loop is an apex.Policy on an apex.Engine",
			strings.Join(every, "\n  "), strings.Join(wantEvery, "\n  "))
	}
}
