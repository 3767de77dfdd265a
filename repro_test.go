package repro

// Top-level integration tests: the full pipeline from benchmark port to
// regenerated experiment, crossing every subsystem.

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/inncabs"
	"repro/internal/machine"
	"repro/internal/sim"
)

// simRun is shared with bench_test.go.
func simRun(m machine.Machine, g *sim.Graph) (sim.Result, error) {
	return sim.Run(sim.Config{Machine: m, Cores: 20, Mode: sim.HPX}, g)
}

// TestPaperHeadlineShapes asserts the paper's three headline results on
// the Test-size graphs: (1) for fine grains the lightweight runtime
// beats thread-per-task decisively, (2) for coarse grains they tie,
// (3) the counter framework's derived overhead explains the difference.
func TestPaperHeadlineShapes(t *testing.T) {
	m := machine.IvyBridge()
	run := func(name string, mode sim.Mode) sim.Result {
		b, err := inncabs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(sim.Config{Machine: m, Cores: 10, Mode: mode}, b.TaskGraph(inncabs.Small))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// (1) fib (1.37 µs grain): std at least 3x slower or dead.
	fibH, fibS := run("fib", sim.HPX), run("fib", sim.Std)
	if !fibS.Failed && float64(fibS.MakespanNs) < 3*float64(fibH.MakespanNs) {
		t.Errorf("fib: std/hpx = %.2f, want >= 3",
			float64(fibS.MakespanNs)/float64(fibH.MakespanNs))
	}
	// (2) alignment (2.7 ms grain): within 15%.
	alH, alS := run("alignment", sim.HPX), run("alignment", sim.Std)
	if ratio := float64(alS.MakespanNs) / float64(alH.MakespanNs); ratio > 1.15 || ratio < 0.85 {
		t.Errorf("alignment: std/hpx = %.2f, want ~1", ratio)
	}
	// (3) overhead share: fib pays a large overhead fraction, alignment
	// a negligible one — the counters the paper uses to explain (1)+(2).
	if fibShare := float64(fibH.OverheadNs) / float64(fibH.TaskTimeNs); fibShare < 0.10 {
		t.Errorf("fib overhead share = %.3f, want substantial", fibShare)
	}
	if alShare := float64(alH.OverheadNs) / float64(alH.TaskTimeNs); alShare > 0.01 {
		t.Errorf("alignment overhead share = %.4f, want negligible", alShare)
	}
}

// TestRunAllExperiments drives the complete cmd/repro path at Test size.
func TestRunAllExperiments(t *testing.T) {
	var sb strings.Builder
	if err := bench.RunAll(&sb, inncabs.Test, machine.IvyBridge()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range bench.IDs() {
		want := map[byte]string{'t': "Table", 'f': "Figure"}[id[0]]
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %s section", id)
		}
	}
	if len(out) < 5000 {
		t.Fatalf("full run produced only %d bytes", len(out))
	}
}

// TestSocketBoundaryVisibleInOverheadFigure checks the defining feature
// of figures 11/12: for a very fine benchmark, per-task overhead grows
// across the socket boundary.
func TestSocketBoundaryVisibleInOverheadFigure(t *testing.T) {
	b, err := inncabs.ByName("uts")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.IvyBridge()
	s, err := bench.StrongScaling(b, inncabs.Small, m, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	// The averages are read through the runs' counters, as the figure
	// reads them.
	average := func(cores int, counter string) float64 {
		reg := core.NewRegistry()
		if err := s.Result(sim.HPX, cores).RegisterCounters(reg, 0); err != nil {
			t.Fatal(err)
		}
		v, err := reg.Evaluate("/threads{locality#0/total}/time/"+counter, false)
		if err != nil {
			t.Fatal(err)
		}
		return v.Float64()
	}
	within, beyond := average(10, "average-overhead"), average(20, "average-overhead")
	if beyond < 1.3*within {
		t.Errorf("overhead did not jump across the socket boundary: %v -> %v", within, beyond)
	}
	within, beyond = average(10, "average"), average(20, "average")
	if beyond < within {
		t.Errorf("task duration did not grow across the socket boundary: %v -> %v", within, beyond)
	}
}

// TestAblationsAreLoadBearing verifies that removing each modelled cost
// term actually erases its published effect — the model is not
// over-parameterised decoration.
func TestAblationsAreLoadBearing(t *testing.T) {
	rows, err := bench.RunAblations(inncabs.Small, machine.IvyBridge())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("ablation rows = %d", len(rows))
	}
	byName := map[string]bench.Ablation{}
	for _, a := range rows {
		byName[a.Name] = a
	}
	uts := byName["remote contention (socket boundary)"]
	if uts.Full <= 1 || uts.Removed >= 1 {
		t.Errorf("remote contention: full %v removed %v; the post-socket slowdown must vanish", uts.Full, uts.Removed)
	}
	bw := byName["bandwidth saturation + NUMA penalty"]
	if bw.Full >= 1.6 || bw.Removed <= 1.8 {
		t.Errorf("bandwidth model: full %v removed %v; flattening must vanish", bw.Full, bw.Removed)
	}
	create := byName["pthread creation cost"]
	if create.Full < 2 || create.Removed > 1.5 {
		t.Errorf("creation cost: full %v removed %v; the fine-grain gap must collapse", create.Full, create.Removed)
	}
}
