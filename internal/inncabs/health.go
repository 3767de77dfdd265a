package inncabs

import "repro/internal/sim"

// Health: the Columbian health-care simulation (BOTS). A tree of
// villages is simulated over discrete time steps; every step descends
// the hierarchy with one task per village, moving patients between the
// local queue and the referral queue of the parent. Loop-like per step
// with a recursive descent inside, no locking (each task owns its
// village), very fine grain (Table V: 1.02 µs). The std::async version
// fails: the per-step descent keeps one thread per village alive and
// the paper's input has ~10^4 villages over thousands of steps
// (1.75×10^7 tasks total).

type healthParams struct {
	levels    int // hierarchy depth
	branching int // villages per parent
	steps     int // simulated time steps
}

func healthSize(s Size) healthParams {
	switch s {
	case Test:
		return healthParams{levels: 3, branching: 3, steps: 10}
	case Small:
		return healthParams{levels: 4, branching: 4, steps: 20}
	case Medium:
		return healthParams{levels: 5, branching: 4, steps: 40}
	case Huge:
		// ~19.5k villages x 400 steps (~7.8M tasks): a minutes-scale run
		// for cancellation tests.
		return healthParams{levels: 7, branching: 5, steps: 400}
	default: // Paper-shaped: ~5k villages x 60 steps (scaled from 1.75e7 tasks)
		return healthParams{levels: 6, branching: 5, steps: 60}
	}
}

// patient is one simulated person.
type patient struct {
	id        uint64
	remaining int // treatment steps left at the current village
}

// village is one node of the health hierarchy.
type village struct {
	id       uint64
	level    int
	children []*village
	// waiting are patients under treatment here.
	waiting []patient
	// referred collects patients sent up by children, consumed by the
	// parent's next step (single-writer per step ordering makes this
	// safe without locks).
	referred []patient
	// treated counts completed treatments (the checksum source).
	treated int64
}

// buildVillages constructs the hierarchy deterministically.
func buildVillages(p healthParams) *village {
	var id uint64
	var build func(level int) *village
	build = func(level int) *village {
		id++
		v := &village{id: id, level: level}
		if level < p.levels {
			for i := 0; i < p.branching; i++ {
				v.children = append(v.children, build(level+1))
			}
		}
		return v
	}
	return build(1)
}

// healthStep processes one village for one time step: it first recurses
// into the children (one task each), then absorbs their referrals,
// treats its waiting patients, and refers the unlucky ones upward.
func healthStep(rt Runtime, v *village, step int) {
	// One batch per village: the child descent is launched as a single
	// scheduler transaction, with Table V's 1.02 µs grain as the inline
	// hint — health is the suite's finest-grained member, exactly the
	// regime adaptive inlining targets.
	var fns []func() any
	for _, c := range v.children {
		c := c
		fns = append(fns, func() any {
			healthStep(rt, c, step)
			return nil
		})
	}
	futures := asyncAll(rt, grainNs(1.02), fns) // Table V: 1.02 µs tasks
	// New patient arrives with a deterministic pseudo-random condition.
	h := hash64(v.id*1000003 + uint64(step))
	if h%4 == 0 {
		v.waiting = append(v.waiting, patient{id: h, remaining: int(h>>8%3) + 1})
	}
	for _, f := range futures {
		f.Get()
	}
	// Absorb children's referrals.
	for _, c := range v.children {
		v.waiting = append(v.waiting, c.referred...)
		c.referred = c.referred[:0]
	}
	// Treat: decrement; discharged patients count, hard cases go up.
	kept := v.waiting[:0]
	for _, pt := range v.waiting {
		pt.remaining--
		switch {
		case pt.remaining <= 0:
			v.treated++
		case hash64(pt.id+uint64(step))%8 == 0 && v.level > 1:
			v.referred = append(v.referred, pt)
		default:
			kept = append(kept, pt)
		}
	}
	v.waiting = kept
}

// healthChecksum sums treated counts over the tree.
func healthChecksum(root *village) int64 {
	var s int64
	stack := []*village{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s += v.treated
		stack = append(stack, v.children...)
	}
	return s
}

func healthRunOn(rt Runtime, size Size) int64 {
	p := healthSize(size)
	root := buildVillages(p)
	for step := 0; step < p.steps; step++ {
		healthStep(rt, root, step)
	}
	return healthChecksum(root)
}

func healthRun(rt Runtime, size Size) int64 { return healthRunOn(rt, size) }

func healthRef(size Size) int64 { return healthRunOn(sequentialRuntime{}, size) }

// healthGraph: steps in series; each step is the recursive descent tree
// at the 1.02 µs grain.
func healthGraph(size Size) *sim.Graph {
	p := healthSize(size)
	if size == Paper {
		// The paper's input simulates ~10^5 villages: one step keeps
		// more threads live than the baseline's ceiling. Ten steps give
		// ~1.3M tasks (the paper's 1.75e7 scaled by ~14x; shape-neutral).
		p.levels, p.branching, p.steps = 6, 11, 8
	}
	work := grainNs(1.02)
	bytes := taskBytes(healthIntensity, work)
	var step func(level int) *sim.Node
	step = func(level int) *sim.Node {
		n := &sim.Node{PreNs: work / 2, PostNs: work / 2, PreBytes: bytes}
		if level < p.levels {
			for i := 0; i < p.branching; i++ {
				n.Children = append(n.Children, step(level+1))
			}
		}
		return n
	}
	root := &sim.Node{Serial: true}
	for s := 0; s < p.steps; s++ {
		root.Children = append(root.Children, step(1))
	}
	return &sim.Graph{Label: "health", Root: root}
}

// healthIntensity: pointer chasing over patient queues: ~1 GB/s.
const healthIntensity = 1e9

var healthBenchmark = register(&Benchmark{
	Name:            "health",
	Class:           "Loop Like",
	Sync:            "none",
	Granularity:     "very fine",
	PaperTaskUs:     1.02,
	PaperStdScaling: "fail",
	PaperHPXScaling: "to 10",
	MemIntensity:    healthIntensity,
	Run:             healthRun,
	RefChecksum:     healthRef,
	TaskGraph:       healthGraph,
})
