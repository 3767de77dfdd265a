package inncabs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stdrt"
	"repro/internal/taskrt"
)

func hpxTestRuntime(t testing.TB, workers int) *HPXRuntime {
	t.Helper()
	rt := taskrt.New(taskrt.WithWorkers(workers))
	t.Cleanup(rt.Shutdown)
	return NewHPX(rt)
}

func stdTestRuntime(t testing.TB) *StdRuntime {
	t.Helper()
	return NewStd(stdrt.New())
}

func TestSuiteComplete(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("suite has %d benchmarks, want 14: %v", len(all), Names())
	}
	if got := all[0].Name; got != "alignment" {
		t.Fatalf("Table V order broken: first = %q", got)
	}
	if got := all[13].Name; got != "round" {
		t.Fatalf("Table V order broken: last = %q", got)
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Run == nil || b.RefChecksum == nil || b.TaskGraph == nil {
			t.Errorf("%s: incomplete registration", b.Name)
		}
		if b.PaperTaskUs <= 0 || b.MemIntensity <= 0 {
			t.Errorf("%s: missing calibration data", b.Name)
		}
		if b.Class == "" || b.Sync == "" || b.Granularity == "" {
			t.Errorf("%s: missing Table V metadata", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("fib")
	if err != nil || b.Name != "fib" {
		t.Fatalf("ByName(fib) = %v, %v", b, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("ByName accepted unknown name")
	}
}

func TestSizes(t *testing.T) {
	for _, s := range []Size{Test, Small, Medium, Paper, Huge} {
		p, err := ParseSize(s.String())
		if err != nil || p != s {
			t.Errorf("round-trip %v: %v %v", s, p, err)
		}
	}
	if _, err := ParseSize("gigantic"); err == nil {
		t.Error("ParseSize accepted bogus size")
	}
	if Size(99).String() == "" {
		t.Error("unknown size has empty name")
	}
}

// TestChecksumsOnHPX runs every benchmark at Test size on the lightweight
// runtime and compares against the sequential reference — the core
// correctness property of the port.
func TestChecksumsOnHPX(t *testing.T) {
	rt := hpxTestRuntime(t, 4)
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			got := b.Run(rt, Test)
			want := b.RefChecksum(Test)
			if got != want {
				t.Fatalf("%s on HPX: checksum %d, reference %d", b.Name, got, want)
			}
		})
	}
}

// TestChecksumsOnStd does the same on the thread-per-task baseline.
func TestChecksumsOnStd(t *testing.T) {
	rt := stdTestRuntime(t)
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			got := b.Run(rt, Test)
			want := b.RefChecksum(Test)
			if got != want {
				t.Fatalf("%s on std: checksum %d, reference %d", b.Name, got, want)
			}
		})
	}
}

// TestChecksumsSingleWorker guards against concurrency being required
// for correctness: one worker must compute the same results.
func TestChecksumsSingleWorker(t *testing.T) {
	rt := hpxTestRuntime(t, 1)
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if got, want := b.Run(rt, Test), b.RefChecksum(Test); got != want {
				t.Fatalf("%s on 1 worker: checksum %d, reference %d", b.Name, got, want)
			}
		})
	}
}

// TestTaskGraphsSimulate runs every benchmark's skeleton through the
// simulator at 1 and 20 cores and validates the structural invariants.
func TestTaskGraphsSimulate(t *testing.T) {
	m := simMachine()
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			g := b.TaskGraph(Test)
			st := g.Stats()
			if st.Tasks < 2 {
				t.Fatalf("graph has %d tasks", st.Tasks)
			}
			if st.WorkNs <= 0 {
				t.Fatalf("graph has no work")
			}
			r1, err := sim.Run(sim.Config{Machine: m, Cores: 1, Mode: sim.HPX}, g)
			if err != nil {
				t.Fatalf("1-core sim: %v", err)
			}
			r20, err := sim.Run(sim.Config{Machine: m, Cores: 20, Mode: sim.HPX}, g)
			if err != nil {
				t.Fatalf("20-core sim: %v", err)
			}
			if r1.Tasks != st.Tasks || r20.Tasks != st.Tasks {
				t.Fatalf("simulated tasks %d/%d != graph %d", r1.Tasks, r20.Tasks, st.Tasks)
			}
			// Very fine-grained benchmarks may degrade at 20 cores (the
			// paper's own observation); everything else must speed up.
			if b.Granularity == "very fine" || b.Granularity == "variable/very fine" {
				if r20.MakespanNs > 3*r1.MakespanNs {
					t.Fatalf("20 cores degraded beyond model expectations: %d vs %d", r20.MakespanNs, r1.MakespanNs)
				}
			} else if r20.MakespanNs > r1.MakespanNs {
				t.Fatalf("20 cores slower than 1: %d vs %d", r20.MakespanNs, r1.MakespanNs)
			}
		})
	}
}

// TestGraphGrainMatchesTableV checks each skeleton's average task
// duration at one core is within 3x of the paper's Table V value —
// variable-grain benchmarks legitimately deviate from the leaf grain.
func TestGraphGrainMatchesTableV(t *testing.T) {
	m := simMachine()
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			g := b.TaskGraph(Small)
			r, err := sim.Run(sim.Config{Machine: m, Cores: 1, Mode: sim.HPX}, g)
			if err != nil {
				t.Fatal(err)
			}
			reg := core.NewRegistry()
			if err := r.RegisterCounters(reg, 0); err != nil {
				t.Fatal(err)
			}
			avg, err := reg.Evaluate("/threads{locality#0/total}/time/average", false)
			if err != nil {
				t.Fatal(err)
			}
			gotUs := avg.Float64() / 1000
			ratio := gotUs / b.PaperTaskUs
			if ratio < 0.3 || ratio > 3.5 {
				t.Fatalf("avg task %.2f µs vs Table V %.2f µs (ratio %.2f)",
					gotUs, b.PaperTaskUs, ratio)
			}
		})
	}
}

func simMachine() machineType { return realIvyBridge() }

func TestHPXBeatsStdAtScaleOnSim(t *testing.T) {
	// For every very fine-grained benchmark, the simulated 10-core std
	// run must be much slower than HPX or fail — the paper's central
	// comparison.
	m := realIvyBridge()
	for _, b := range All() {
		if b.Granularity != "very fine" {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			g := b.TaskGraph(Small)
			rh, err := sim.Run(sim.Config{Machine: m, Cores: 10, Mode: sim.HPX}, g)
			if err != nil || rh.Failed {
				t.Fatalf("HPX sim failed: %+v %v", rh.FailureReason, err)
			}
			rs, err := sim.Run(sim.Config{Machine: m, Cores: 10, Mode: sim.Std}, g)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Failed {
				return // thread exhaustion: matches the paper's "fail"
			}
			if ratio := float64(rs.MakespanNs) / float64(rh.MakespanNs); ratio < 1.5 {
				t.Fatalf("std/hpx ratio %.2f for %s; want >= 1.5", ratio, b.Name)
			}
		})
	}
}

// TestPaperTaskCounts pins the graph generators to the paper's Table I
// task counts where the paper states them.
func TestPaperTaskCounts(t *testing.T) {
	cases := []struct {
		name     string
		lo, hi   int64 // acceptance band around the paper's count
		paperVal string
	}{
		{"alignment", 4900, 5000, "4,950"},
		{"sparselu", 10000, 12000, "11,099"},
		{"round", 500, 530, "512"},
	}
	for _, c := range cases {
		b, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		got := b.TaskGraph(Paper).Stats().Tasks
		if got < c.lo || got > c.hi {
			t.Errorf("%s paper-size tasks = %d, paper reports %s", c.name, got, c.paperVal)
		}
	}
}
