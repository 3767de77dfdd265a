package sim

import (
	"testing"

	"repro/internal/core"
)

func TestSerialNodeSequencing(t *testing.T) {
	// Three serial stages of 4 parallel leaves each on 4 cores: the
	// makespan must be 3 x leaf time (stages cannot overlap), not 1x.
	m := flatMachine()
	stage := func() *Node {
		n := &Node{}
		for i := 0; i < 4; i++ {
			n.Children = append(n.Children, Leaf(1000, 0))
		}
		return n
	}
	g := &Graph{Root: &Node{Serial: true, Children: []*Node{stage(), stage(), stage()}}}
	r, err := Run(Config{Machine: m, Cores: 4, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.MakespanNs != 3000 {
		t.Fatalf("serial stages makespan = %d want 3000", r.MakespanNs)
	}
	// The same graph without Serial overlaps fully: 12 leaves on 4
	// cores = 3 rounds... but all stages start together so the three
	// stage parents' leaves interleave: still 12000/4 = 3000 of work,
	// yet with 12 concurrent leaves the greedy schedule also needs
	// 3000. Distinguish with 2 stages of 4 leaves on 8 cores instead.
	g2 := &Graph{Root: &Node{Children: []*Node{stage(), stage()}}}
	r2, err := Run(Config{Machine: m, Cores: 8, Mode: HPX}, g2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MakespanNs != 1000 {
		t.Fatalf("parallel stages makespan = %d want 1000", r2.MakespanNs)
	}
	g3 := &Graph{Root: &Node{Serial: true, Children: []*Node{stage(), stage()}}}
	r3, err := Run(Config{Machine: m, Cores: 8, Mode: HPX}, g3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.MakespanNs != 2000 {
		t.Fatalf("serial stages on wide machine = %d want 2000", r3.MakespanNs)
	}
}

func TestSerialCriticalPath(t *testing.T) {
	leafA, leafB := Leaf(100, 0), Leaf(200, 0)
	serial := &Graph{Root: &Node{Serial: true, PreNs: 10, PostNs: 20,
		Children: []*Node{leafA, leafB}}}
	if got := serial.Stats().CriticalPathNs; got != 10+100+200+20 {
		t.Fatalf("serial critical path = %d", got)
	}
	parallel := &Graph{Root: &Node{PreNs: 10, PostNs: 20,
		Children: []*Node{Leaf(100, 0), Leaf(200, 0)}}}
	if got := parallel.Stats().CriticalPathNs; got != 10+200+20 {
		t.Fatalf("parallel critical path = %d", got)
	}
}

func TestStdLiveAccountingWaitersStayLive(t *testing.T) {
	// A deep chain: every parent waits on one child. Under the std
	// model all of them hold threads simultaneously, so peak live =
	// depth; under HPX the waiting parents release their core.
	m := flatMachine()
	depth := 60
	node := Leaf(1000, 0)
	for i := 0; i < depth; i++ {
		node = &Node{PreNs: 100, PostNs: 100, Children: []*Node{node}}
	}
	g := &Graph{Root: node}
	rStd, err := Run(Config{Machine: m, Cores: 2, Mode: Std}, g)
	if err != nil {
		t.Fatal(err)
	}
	if rStd.PeakLive != int64(depth)+1 {
		t.Fatalf("std peak live = %d want %d", rStd.PeakLive, depth+1)
	}
	// The ceiling kills exactly this pattern.
	limited := m
	limited.StdThreadCeiling = 30
	rFail, err := Run(Config{Machine: limited, Cores: 2, Mode: Std}, g)
	if err != nil {
		t.Fatal(err)
	}
	if !rFail.Failed {
		t.Fatal("chain deeper than the ceiling did not fail")
	}
	// HPX executes the same chain with bounded live state.
	rHPX, err := Run(Config{Machine: limited, Cores: 2, Mode: HPX}, g)
	if err != nil || rHPX.Failed {
		t.Fatalf("HPX failed on the chain: %v %v", rHPX.FailureReason, err)
	}
}

func TestStdCreationChargedToParent(t *testing.T) {
	// One root spawning 100 leaves: the creation cost is serialised in
	// the root, so the std makespan includes 100 x create even on many
	// cores.
	m := flatMachine()
	m.StdThreadCreateNs = 10000
	root := &Node{}
	for i := 0; i < 100; i++ {
		root.Children = append(root.Children, Leaf(1000, 0))
	}
	g := &Graph{Root: root}
	r, err := Run(Config{Machine: m, Cores: 20, Mode: Std}, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.MakespanNs < 100*10000 {
		t.Fatalf("makespan %d misses the serialised creation cost", r.MakespanNs)
	}
	if r.OverheadNs < 100*10000 {
		t.Fatalf("overhead %d misses the creation cost", r.OverheadNs)
	}
}

func TestContentionInflatesTaskTimeOnly(t *testing.T) {
	m := flatMachine()
	m.HPXLocalContentionNs = 100
	g := fanout(64, 1000)
	r1, err := Run(Config{Machine: m, Cores: 1, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(Config{Machine: m, Cores: 8, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	const average = "/threads{locality#0/total}/time/average"
	if avg1, avg8 := counter(t, r1, average), counter(t, r8, average); avg1 >= avg8 {
		t.Fatalf("task duration did not grow with cores: %v -> %v", avg1, avg8)
	}
	// Contention lands in task time, not overhead, and pure work is
	// untouched.
	if r8.PureWorkNs != r1.PureWorkNs {
		t.Fatal("pure work changed with contention")
	}
	if r8.OverheadNs != 0 {
		t.Fatalf("contention leaked into overhead: %d", r8.OverheadNs)
	}
}

func TestResultRegisterCounters(t *testing.T) {
	g := fanout(16, 1000)
	r, err := Run(Config{Machine: flatMachine(), Cores: 4, Mode: HPX}, g)
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if err := r.RegisterCounters(reg, 7); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Evaluate("/threads{locality#7/total}/count/cumulative", false)
	if err != nil || v.Raw != r.Tasks {
		t.Fatalf("cumulative = %+v (%v)", v, err)
	}
	avg, err := reg.Evaluate("/threads{locality#7/total}/time/average", false)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(r.TaskTimeNs) / float64(r.Tasks)
	if got := avg.Float64(); got != want || avg.Count != r.Tasks {
		t.Fatalf("avg = %v (count %d) want %v (count %d)", got, avg.Count, want, r.Tasks)
	}
	up, _ := reg.Evaluate("/runtime{locality#7/total}/uptime", false)
	if up.Raw != r.MakespanNs {
		t.Fatalf("uptime = %d want %d", up.Raw, r.MakespanNs)
	}
	// Meta counters compose over simulated values like live ones.
	ratio, err := reg.Evaluate(
		"/arithmetics/divide@/threads{locality#7/total}/time/cumulative-overhead,"+
			"/threads{locality#7/total}/time/cumulative", false)
	if err != nil {
		t.Fatal(err)
	}
	_ = ratio
}
