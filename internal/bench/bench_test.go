package bench

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/inncabs"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestStrongScalingSeries(t *testing.T) {
	b, err := inncabs.ByName("alignment")
	if err != nil {
		t.Fatal(err)
	}
	s, err := StrongScaling(b, inncabs.Test, machine.IvyBridge(), []int{1, 4, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 || s.Benchmark != "alignment" {
		t.Fatalf("series = %+v", s)
	}
	if s.Result(sim.HPX, 4).Cores != 4 {
		t.Fatal("Result lookup broken")
	}
	if s.Result(sim.HPX, 99).Cores != 0 {
		t.Fatal("missing point not zero")
	}
	// Coarse tasks: near-perfect speedup at 4 cores.
	if sp := s.Speedup(sim.HPX, 4); sp < 3 || sp > 4.1 {
		t.Fatalf("4-core speedup = %v", sp)
	}
	if got := s.ScalesTo(sim.HPX); got != "to 20" {
		t.Fatalf("ScalesTo = %q", got)
	}
}

func TestReadCounters(t *testing.T) {
	// 1000 cache lines and a partial one in 2 µs; the partial line is no
	// request, so the paper's estimate is 1000 x 64 B / 2 µs.
	r := sim.Result{Tasks: 4, TaskTimeNs: 4000, OverheadNs: 400, MakespanNs: 2000,
		OffcoreBytes: 64*1000 + 63, LineBytes: 64, Cores: 2, IdleNs: 1000}
	rd, err := readCounters(r)
	if err != nil {
		t.Fatal(err)
	}
	want := reading{taskNs: 4000, overheadNs: 400, avgTaskNs: 1000, avgOverheadNs: 100,
		idleRate: 0.25, bandwidth: 64000 / 2000e-9}
	if rd != want {
		t.Fatalf("reading = %+v\nwant      %+v", rd, want)
	}
	// A run without uptime reads zero everywhere, not a division by zero.
	if rd, err := readCounters(sim.Result{}); err != nil || rd != (reading{}) {
		t.Fatalf("zero result: %+v, %v", rd, err)
	}
}

func TestBandwidthFormula(t *testing.T) {
	// The paper's estimate: requests x 64 B / time; 1000 lines in 1 s.
	r := sim.Result{OffcoreBytes: 64 * 1000, LineBytes: 64, MakespanNs: 1e9}
	if rd, err := readCounters(r); err != nil || rd.bandwidth != 64000 {
		t.Fatalf("bandwidth = %v (%v) want 64000", rd.bandwidth, err)
	}
	// Traffic without elapsed time yields zero bandwidth.
	r.MakespanNs = 0
	if rd, err := readCounters(r); err != nil || rd.bandwidth != 0 {
		t.Fatalf("zero uptime: bandwidth = %v (%v) want 0", rd.bandwidth, err)
	}
}

func TestReadCountersBandwidth(t *testing.T) {
	// A simulated run's bandwidth, read from its registered counters, is
	// its off-core traffic over its makespan up to the partial last line.
	m := machine.IvyBridge()
	g := &sim.Graph{Label: "leaf", Root: sim.Leaf(1_000_000, 64*1_000_000+10)}
	r, err := sim.Run(sim.Config{Machine: m, Cores: 1, Mode: sim.HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := readCounters(r)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(r.OffcoreBytes) / (float64(r.MakespanNs) / 1e9)
	if r.MakespanNs <= 0 || math.Abs(rd.bandwidth-want)/want > 0.01 {
		t.Fatalf("bandwidth = %v want ~%v", rd.bandwidth, want)
	}
}

func TestScalesToClassifications(t *testing.T) {
	mkSeries := func(times map[int]int64) Series {
		var s Series
		for _, k := range []int{1, 2, 4, 10, 20} {
			s.Points = append(s.Points, Point{Cores: k, HPX: sim.Result{MakespanNs: times[k]}})
		}
		return s
	}
	flat := mkSeries(map[int]int64{1: 1000, 2: 990, 4: 985, 10: 980, 20: 978})
	if got := flat.ScalesTo(sim.HPX); got != "no scaling" {
		t.Errorf("flat series = %q", got)
	}
	knee := mkSeries(map[int]int64{1: 1000, 2: 500, 4: 245, 10: 240, 20: 238})
	if got := knee.ScalesTo(sim.HPX); got != "to 4" {
		t.Errorf("knee series = %q", got)
	}
	failed := knee
	failed.Points[2].HPX.Failed = true
	if got := failed.ScalesTo(sim.HPX); got != "fail" {
		t.Errorf("failed series = %q", got)
	}
}

func TestDefaultCores(t *testing.T) {
	cores := DefaultCores()
	if cores[0] != 1 || cores[len(cores)-1] != 20 {
		t.Fatalf("DefaultCores = %v", cores)
	}
	for i := 1; i < len(cores); i++ {
		if cores[i] <= cores[i-1] {
			t.Fatal("cores not increasing")
		}
	}
}

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	if len(ids) != 6+14 {
		t.Fatalf("IDs = %v", ids)
	}
	if ids[0] != "table1" || ids[6] != "fig1" || ids[len(ids)-1] != "fig14" {
		t.Fatalf("ordering: %v", ids)
	}
	for _, id := range ids {
		if Describe(id) == "unknown" {
			t.Errorf("no description for %s", id)
		}
	}
	if Describe("nope") != "unknown" {
		t.Error("unknown id described")
	}
}

func TestRunEveryExperimentAtTestSize(t *testing.T) {
	m := machine.IvyBridge()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var sb strings.Builder
			if err := Run(&sb, id, inncabs.Test, m); err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("Run(%s) produced no output", id)
			}
		})
	}
	var sb strings.Builder
	if err := Run(&sb, "fig99", inncabs.Test, m); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTable1Cells(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, inncabs.Test, machine.IvyBridge()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"alignment", "uts", "TAU", "HPCToolkit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Cells(t *testing.T) {
	var sb strings.Builder
	if err := Table5(&sb, inncabs.Test, machine.IvyBridge()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"alignment", "Loop Like", "Recursive Unbalanced",
		"mult. mutex/task", "coarse", "very fine"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table5 missing %q", want)
		}
	}
	// Every benchmark appears exactly once.
	for _, b := range inncabs.All() {
		if strings.Count(out, b.Name+" ") == 0 {
			t.Errorf("table5 missing row for %s", b.Name)
		}
	}
}

func TestRenderTableAlignment(t *testing.T) {
	var sb strings.Builder
	RenderTable(&sb, "T", []string{"a", "bb"}, [][]string{{"xxx", "y"}, {"z"}})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), sb.String())
	}
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Fatalf("ragged table:\n%s", sb.String())
	}
}

func TestRenderChart(t *testing.T) {
	var sb strings.Builder
	RenderChart(&sb, "title", "x", "y", []ChartSeries{
		{Name: "s1", Marker: 'A', X: []float64{1, 2, 4}, Y: []float64{100, 50, 25}},
	})
	out := sb.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "s1") {
		t.Fatalf("chart = %q", out)
	}
	// All-failed series renders a notice, not a panic.
	sb.Reset()
	nan := []float64{0, 0}
	RenderChart(&sb, "t", "x", "y", []ChartSeries{{Name: "f", Marker: 'F', X: []float64{1, 2}, Y: nan}})
	if !strings.Contains(sb.String(), "no data") {
		t.Fatalf("empty chart = %q", sb.String())
	}
}

func TestFormatSI(t *testing.T) {
	cases := map[float64]string{
		5:       "5",
		5000:    "5k",
		5e6:     "5M",
		5e9:     "5G",
		1234567: "1.23M",
	}
	for v, want := range cases {
		if got := formatSI(v); got != want {
			t.Errorf("formatSI(%v) = %q want %q", v, got, want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	WriteCSV(&sb, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if sb.String() != "a,b\n1,2\n3,4\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestExportFigureCSV(t *testing.T) {
	var sb strings.Builder
	if err := ExportFigureCSV(&sb, "fig1", inncabs.Test, machine.IvyBridge()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+len(DefaultCores()) {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "benchmark,cores,hpx_time_s") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "alignment,1,") {
		t.Fatalf("first row = %q", lines[1])
	}
	if err := ExportFigureCSV(&sb, "table5", inncabs.Test, machine.IvyBridge()); err == nil {
		t.Fatal("table id accepted as figure")
	}
}

func TestExportAllCSV(t *testing.T) {
	dir := t.TempDir()
	files, err := ExportAllCSV(dir, inncabs.Test, machine.IvyBridge())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 14 {
		t.Fatalf("exported %d files", len(files))
	}
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Fatalf("file %s: %v (size %d)", f, err, st.Size())
		}
	}
}

func TestGrainSweepShape(t *testing.T) {
	points, err := GrainSweep(machine.IvyBridge(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 8 {
		t.Fatalf("sweep points = %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	// Very fine tasks: the baseline fails or loses badly.
	if first.StdOverHPX != 0 && first.StdOverHPX < 3 {
		t.Fatalf("fine grain std/hpx = %v, want fail or >= 3", first.StdOverHPX)
	}
	// Coarse tasks: the runtimes converge.
	if last.StdOverHPX < 0.8 || last.StdOverHPX > 1.25 {
		t.Fatalf("coarse grain std/hpx = %v, want ~1", last.StdOverHPX)
	}
	// HPX overhead share decays monotonically with grain.
	for i := 1; i < len(points); i++ {
		if points[i].HPXOverheadShare > points[i-1].HPXOverheadShare+1e-9 {
			t.Fatalf("overhead share not decaying at %gus: %v -> %v",
				points[i].GrainUs, points[i-1].HPXOverheadShare, points[i].HPXOverheadShare)
		}
	}
	// The std/hpx ratio decays monotonically over the completed range.
	prev := math.Inf(1)
	for _, p := range points {
		if p.StdOverHPX == 0 {
			continue
		}
		if p.StdOverHPX > prev+1e-9 {
			t.Fatalf("std/hpx ratio not decaying at %gus", p.GrainUs)
		}
		prev = p.StdOverHPX
	}
}

func TestCoresForEpyc(t *testing.T) {
	cores := CoresFor(machine.EpycRome())
	if cores[0] != 1 || cores[len(cores)-1] != 64 {
		t.Fatalf("epyc cores = %v", cores)
	}
	has := func(k int) bool {
		for _, c := range cores {
			if c == k {
				return true
			}
		}
		return false
	}
	if !has(32) || !has(34) {
		t.Fatalf("socket boundary points missing: %v", cores)
	}
	if got := CoresFor(machine.IvyBridge()); len(got) != len(DefaultCores()) {
		t.Fatalf("ivybridge cores = %v", got)
	}
}

func TestFigureOnEpyc(t *testing.T) {
	var sb strings.Builder
	if err := Run(&sb, "fig6", inncabs.Test, machine.EpycRome()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "64") {
		t.Fatalf("epyc figure lacks the 64-core point:\n%s", sb.String())
	}
}
