package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
)

// counter registers r's counters at locality 0 of a fresh registry and
// reads one by full name, the way the figures read a run.
func counter(t *testing.T, r Result, name string) float64 {
	t.Helper()
	reg := core.NewRegistry()
	if err := r.RegisterCounters(reg, 0); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Evaluate(name, false)
	if err != nil {
		t.Fatal(err)
	}
	return v.Float64()
}

// offcoreEvents are the /papi request counters of locality 0.
var offcoreEvents = []string{
	"/papi{locality#0/total}/OFFCORE_REQUESTS@ALL_DATA_RD",
	"/papi{locality#0/total}/OFFCORE_REQUESTS@DEMAND_CODE_RD",
	"/papi{locality#0/total}/OFFCORE_REQUESTS@DEMAND_RFO",
}

// bandwidth is the paper's estimate from r's counters: the summed
// off-core requests times the cache-line size over the uptime.
func bandwidth(t *testing.T, r Result) float64 {
	t.Helper()
	var lines float64
	for _, name := range offcoreEvents {
		lines += counter(t, r, name)
	}
	return lines * float64(r.LineBytes) / (counter(t, r, "/runtime{locality#0/total}/uptime") / 1e9)
}

// testMachine is an Ivy Bridge with contention knobs zeroed where tests
// need exact arithmetic.
func flatMachine() machine.Machine {
	m := machine.IvyBridge()
	m.SocketBandwidth = 1e18 // effectively infinite
	m.CrossSocketPenalty = 0
	m.HPXTaskOverheadNs = 0
	m.HPXStealContention = 0
	m.HPXCrossSocketOverhead = 1
	m.HPXLocalContentionNs = 0
	m.HPXRemoteContentionNs = 0
	m.StdThreadCreateNs = 0
	m.StdCreateContention = 0
	m.StdOversubscription = 0
	return m
}

// fanout builds a root with n leaf children of the given work.
func fanout(n int, workNs int64) *Graph {
	root := &Node{}
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, Leaf(workNs, 0))
	}
	return &Graph{Label: "fanout", Root: root}
}

// binTree builds a balanced binary recursion of the given depth with
// leaf work and per-level divide/merge work.
func binTree(depth int, leafNs, preNs, postNs int64) *Node {
	if depth == 0 {
		return Leaf(leafNs, 0)
	}
	return &Node{
		PreNs:    preNs,
		PostNs:   postNs,
		Children: []*Node{binTree(depth-1, leafNs, preNs, postNs), binTree(depth-1, leafNs, preNs, postNs)},
	}
}

func TestGraphStats(t *testing.T) {
	g := &Graph{Root: binTree(3, 100, 10, 20)}
	s := g.Stats()
	if s.Tasks != 15 { // 2^4 - 1
		t.Fatalf("tasks = %d", s.Tasks)
	}
	wantWork := int64(8*100 + 7*(10+20))
	if s.WorkNs != wantWork {
		t.Fatalf("work = %d want %d", s.WorkNs, wantWork)
	}
	if s.Depth != 4 {
		t.Fatalf("depth = %d", s.Depth)
	}
	// Critical path: 3 levels of (10 .. 20) around one 100ns leaf.
	if want := int64(3*(10+20) + 100); s.CriticalPathNs != want {
		t.Fatalf("critical path = %d want %d", s.CriticalPathNs, want)
	}
	if (&Graph{}).Stats() != (Stats{}) {
		t.Fatal("empty graph stats nonzero")
	}
}

func TestPerfectScalingFlatMachine(t *testing.T) {
	g := fanout(100, 1000_000)
	m := flatMachine()
	r1, err := Run(Config{Machine: m, Cores: 1, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MakespanNs != 100*1000_000 {
		t.Fatalf("1-core makespan = %d", r1.MakespanNs)
	}
	for _, k := range []int{2, 4, 10, 20} {
		rk, err := Run(Config{Machine: m, Cores: k, Mode: HPX}, g)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(r1.MakespanNs) / float64(k)
		if got := float64(rk.MakespanNs); math.Abs(got-want)/want > 0.01 {
			t.Fatalf("%d cores: makespan %v want %v (perfect scaling on flat machine)", k, got, want)
		}
	}
}

func TestTaskAccounting(t *testing.T) {
	g := fanout(10, 500)
	r, err := Run(Config{Machine: flatMachine(), Cores: 2, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks != 11 { // root + 10 leaves
		t.Fatalf("tasks = %d", r.Tasks)
	}
	if r.PureWorkNs != 5000 {
		t.Fatalf("pure work = %d", r.PureWorkNs)
	}
	if r.OverheadNs != 0 {
		t.Fatalf("overhead on zero-overhead machine = %d", r.OverheadNs)
	}
}

func TestOverheadAccounting(t *testing.T) {
	m := flatMachine()
	m.HPXTaskOverheadNs = 100
	g := fanout(10, 1000)
	r, err := Run(Config{Machine: m, Cores: 1, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	// 11 pre phases with 100ns overhead each, plus 1 continuation (root
	// post) at half overhead.
	wantOH := int64(11*100 + 50)
	if r.OverheadNs != wantOH {
		t.Fatalf("overhead = %d want %d", r.OverheadNs, wantOH)
	}
	if r.MakespanNs != 10*1000+wantOH {
		t.Fatalf("makespan = %d", r.MakespanNs)
	}
	if got := counter(t, r, "/threads{locality#0/total}/time/average-overhead"); math.Abs(got-float64(wantOH)/11) > 1 {
		t.Fatalf("avg overhead = %v", got)
	}
}

func TestWorkConservation(t *testing.T) {
	// Invariant: busy + idle == cores * makespan, and busy >= work.
	g := &Graph{Root: binTree(8, 2000, 100, 200)}
	for _, mode := range []Mode{HPX, Std} {
		for _, k := range []int{1, 3, 10, 20} {
			r, err := Run(Config{Machine: machine.IvyBridge(), Cores: k, Mode: mode}, g)
			if err != nil {
				t.Fatal(err)
			}
			total := int64(k) * r.MakespanNs
			if diff := total - (r.BusyNs + r.IdleNs); diff < -total/100 || diff > total/100 {
				t.Fatalf("%v %d cores: busy %d + idle %d != total %d", mode, k, r.BusyNs, r.IdleNs, total)
			}
			if r.TaskTimeNs < r.PureWorkNs {
				t.Fatalf("%v %d cores: stretched task time %d < pure work %d", mode, k, r.TaskTimeNs, r.PureWorkNs)
			}
			if r.MakespanNs <= 0 {
				t.Fatalf("%v %d cores: makespan %d", mode, k, r.MakespanNs)
			}
		}
	}
}

func TestMakespanLowerBounds(t *testing.T) {
	// Makespan >= max(work/cores, critical path) on any machine.
	g := &Graph{Root: binTree(6, 5000, 500, 500)}
	st := g.Stats()
	for _, k := range []int{1, 2, 5, 20} {
		r, err := Run(Config{Machine: machine.IvyBridge(), Cores: k, Mode: HPX}, g)
		if err != nil {
			t.Fatal(err)
		}
		lb := st.WorkNs / int64(k)
		if st.CriticalPathNs > lb {
			lb = st.CriticalPathNs
		}
		if r.MakespanNs < lb {
			t.Fatalf("%d cores: makespan %d below bound %d", k, r.MakespanNs, lb)
		}
	}
}

func TestStdThreadCeilingFailure(t *testing.T) {
	m := flatMachine()
	m.StdThreadCeiling = 50
	g := fanout(100, 1000)
	r, err := Run(Config{Machine: m, Cores: 4, Mode: Std}, g)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Failed {
		t.Fatal("std run with 100 concurrent threads did not fail at ceiling 50")
	}
	if r.FailureReason == "" || r.PeakLive <= 50 {
		t.Fatalf("failure detail: %q peak %d", r.FailureReason, r.PeakLive)
	}
	// HPX mode with the same graph must succeed: it never exceeds the
	// worker count in live execution.
	rh, err := Run(Config{Machine: m, Cores: 4, Mode: HPX}, g)
	if err != nil || rh.Failed {
		t.Fatalf("HPX mode failed: %+v %v", rh, err)
	}
}

func TestStdCreationCostHurtsFineGrain(t *testing.T) {
	// With realistic creation costs, fine-grained tasks run far slower
	// under std than HPX; coarse tasks roughly tie. This is the paper's
	// headline observation.
	m := machine.IvyBridge()
	fine := fanout(10000, 1000)      // 1 µs tasks
	coarse := fanout(100, 5_000_000) // 5 ms tasks
	rFineStd, err := Run(Config{Machine: m, Cores: 10, Mode: Std}, fine)
	if err != nil {
		t.Fatal(err)
	}
	rFineHPX, err := Run(Config{Machine: m, Cores: 10, Mode: HPX}, fine)
	if err != nil {
		t.Fatal(err)
	}
	if rFineStd.Failed || rFineHPX.Failed {
		t.Fatalf("unexpected failure: std=%v hpx=%v", rFineStd.FailureReason, rFineHPX.FailureReason)
	}
	if ratio := float64(rFineStd.MakespanNs) / float64(rFineHPX.MakespanNs); ratio < 3 {
		t.Fatalf("fine-grained std/hpx ratio = %.2f, want >= 3", ratio)
	}
	rCoarseStd, err := Run(Config{Machine: m, Cores: 10, Mode: Std}, coarse)
	if err != nil {
		t.Fatal(err)
	}
	rCoarseHPX, err := Run(Config{Machine: m, Cores: 10, Mode: HPX}, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(rCoarseStd.MakespanNs) / float64(rCoarseHPX.MakespanNs); ratio > 1.2 {
		t.Fatalf("coarse-grained std/hpx ratio = %.2f, want ~1", ratio)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Memory-bound tasks: per-core bandwidth demand beyond capacity must
	// stretch execution so delivered bandwidth stays at capacity.
	m := flatMachine()
	m.SocketBandwidth = 10e9  // 10 GB/s per socket
	work := int64(1_000_000)  // 1 ms
	bytes := int64(5_000_000) // 5 MB per task -> 5 GB/s per core demand
	root := &Node{}
	for i := 0; i < 200; i++ {
		root.Children = append(root.Children, Leaf(work, bytes))
	}
	g := &Graph{Label: "membound", Root: root}

	r1, err := Run(Config{Machine: m, Cores: 1, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	if bw := bandwidth(t, r1); math.Abs(bw-5e9)/5e9 > 0.05 {
		t.Fatalf("1-core bandwidth = %.2g want 5e9", bw)
	}
	r4, err := Run(Config{Machine: m, Cores: 4, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	// Demand 20 GB/s > 10 GB/s capacity: delivered bandwidth pins at
	// capacity and makespan stretches ~2x over perfect scaling.
	if bw := bandwidth(t, r4); math.Abs(bw-10e9)/10e9 > 0.05 {
		t.Fatalf("4-core bandwidth = %.3g want ~10e9 (capacity)", bw)
	}
	if perfect := r1.MakespanNs / 4; float64(r4.MakespanNs) < 1.8*float64(perfect) {
		t.Fatalf("4-core makespan %d did not stretch (perfect %d)", r4.MakespanNs, perfect)
	}
	// Task time inflates versus pure work under contention — the
	// paper's observed task-duration growth with core count.
	if r4.TaskTimeNs <= r4.PureWorkNs {
		t.Fatal("task time did not stretch under bandwidth contention")
	}
}

func TestSocketBoundaryPenalty(t *testing.T) {
	// A memory-bound workload crossing the socket boundary gains
	// capacity (2 sockets) but pays the NUMA penalty: going from 10 to
	// 11 cores must not scale perfectly.
	m := flatMachine()
	m.SocketBandwidth = 8e9
	m.CrossSocketPenalty = 0.4
	root := &Node{}
	for i := 0; i < 400; i++ {
		root.Children = append(root.Children, Leaf(1_000_000, 2_000_000))
	}
	g := &Graph{Root: root}
	r10, err := Run(Config{Machine: m, Cores: 10, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	r11, err := Run(Config{Machine: m, Cores: 11, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	improvement := float64(r10.MakespanNs) / float64(r11.MakespanNs)
	if improvement > 1.08 {
		t.Fatalf("crossing the socket boundary improved makespan by %.2fx", improvement)
	}
}

func TestConfigErrors(t *testing.T) {
	g := fanout(1, 100)
	m := machine.IvyBridge()
	if _, err := Run(Config{Machine: m, Cores: 0, Mode: HPX}, g); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := Run(Config{Machine: m, Cores: 21, Mode: HPX}, g); err == nil {
		t.Error("21 cores accepted on a 20-core machine")
	}
	if _, err := Run(Config{Machine: m, Cores: 1, Mode: HPX}, &Graph{}); err == nil {
		t.Error("empty graph accepted")
	}
	bad := m
	bad.Sockets = 0
	if _, err := Run(Config{Machine: bad, Cores: 1, Mode: HPX}, g); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestModeString(t *testing.T) {
	if HPX.String() != "HPX" || Std.String() != "C++11 Std" {
		t.Fatalf("mode strings: %q %q", HPX, Std)
	}
}

// TestSimInvariantsQuick drives random graphs through both modes and
// checks structural invariants.
func TestSimInvariantsQuick(t *testing.T) {
	var build func(r *rand.Rand, depth int) *Node
	build = func(r *rand.Rand, depth int) *Node {
		n := &Node{
			PreNs:    int64(r.Intn(10000)),
			PostNs:   int64(r.Intn(2000)),
			PreBytes: int64(r.Intn(100000)),
		}
		if depth > 0 {
			for i := 0; i < r.Intn(4); i++ {
				n.Children = append(n.Children, build(r, depth-1))
			}
		}
		return n
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(&Graph{Root: build(r, 5)})
			args[1] = reflect.ValueOf(1 + r.Intn(20))
		},
	}
	prop := func(g *Graph, cores int) bool {
		st := g.Stats()
		for _, mode := range []Mode{HPX, Std} {
			r, err := Run(Config{Machine: machine.IvyBridge(), Cores: cores, Mode: mode}, g)
			if err != nil {
				t.Logf("Run: %v", err)
				return false
			}
			if r.Failed {
				continue
			}
			if r.Tasks != st.Tasks {
				t.Logf("%v: tasks %d != graph %d", mode, r.Tasks, st.Tasks)
				return false
			}
			if r.PureWorkNs != st.WorkNs {
				t.Logf("%v: work %d != graph %d", mode, r.PureWorkNs, st.WorkNs)
				return false
			}
			if r.OffcoreBytes != st.Bytes {
				t.Logf("%v: bytes %d != graph %d", mode, r.OffcoreBytes, st.Bytes)
				return false
			}
			if r.MakespanNs < st.WorkNs/int64(cores) {
				t.Logf("%v: makespan below work bound", mode)
				return false
			}
			if r.BusyNs > int64(cores)*r.MakespanNs+int64(cores) {
				t.Logf("%v: busy exceeds cores x makespan", mode)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedMetrics(t *testing.T) {
	// 1000 cache lines and a partial one, which no request counts.
	r := Result{Tasks: 4, TaskTimeNs: 4000, OverheadNs: 400, MakespanNs: 2000,
		OffcoreBytes: 64*1000 + 63, LineBytes: 64, Cores: 2, IdleNs: 1000}
	if counter(t, r, "/threads{locality#0/total}/time/average") != 1000 ||
		counter(t, r, "/threads{locality#0/total}/time/average-overhead") != 100 {
		t.Fatal("averages")
	}
	if ir := counter(t, r, "/threads{locality#0/total}/idle-rate"); ir != 2500 {
		t.Fatalf("idle rate = %v (0.01%%) want 2500", ir)
	}
	for i, want := range []float64{700, 50, 250} {
		if got := counter(t, r, offcoreEvents[i]); got != want {
			t.Fatalf("%s = %v want %v", offcoreEvents[i], got, want)
		}
	}
	var zero Result
	for _, name := range append([]string{
		"/threads{locality#0/total}/time/average",
		"/threads{locality#0/total}/time/average-overhead",
		"/threads{locality#0/total}/idle-rate",
	}, offcoreEvents...) {
		if v := counter(t, zero, name); v != 0 {
			t.Fatalf("zero result: %s = %v", name, v)
		}
	}
}

func TestOffcoreRequestCounters(t *testing.T) {
	// 1000 cache lines: each request type counts some, and together they
	// count every line once.
	r := Result{OffcoreBytes: 64 * 1000, LineBytes: 64}
	var total float64
	for _, name := range offcoreEvents {
		v := counter(t, r, name)
		if v <= 0 {
			t.Fatalf("%s = %v", name, v)
		}
		total += v
	}
	if total != 1000 {
		t.Fatalf("summed request counts = %v want 1000", total)
	}
}

func TestOffcoreSplitShares(t *testing.T) {
	// Reads dominate, stores (RFO) come next and code reads are the
	// smallest share: 70 / 25 / 5 % of the lines.
	r := Result{OffcoreBytes: 64 * 100000, LineBytes: 64}
	reads, code, rfo := counter(t, r, offcoreEvents[0]), counter(t, r, offcoreEvents[1]), counter(t, r, offcoreEvents[2])
	if reads <= rfo || rfo <= code {
		t.Fatalf("split ordering wrong: reads=%v rfo=%v code=%v", reads, rfo, code)
	}
	if reads != 70000 || code != 5000 || rfo != 25000 {
		t.Fatalf("split = %v/%v/%v want 70000/5000/25000", reads, code, rfo)
	}
}
