package inncabs

import "repro/internal/sim"

// UTS: Unbalanced Tree Search. The tree is defined implicitly: a node's
// child count is derived from a hash of its identifier (a geometric
// distribution whose expectation decays with depth), and the search
// counts the nodes. One task per child — the exhaustive, very fine
// grained spawn pattern (Table V: 1.37 µs) that exhausts the std::async
// baseline's thread budget.

type utsParams struct {
	rootChildren int
	maxDepth     int
	// q1024 is the survival probability in 1/1024 units: an interior
	// node below the root has a child with probability q per slot.
	q1024 uint64
	slots int
	// seqDepth: subtrees below this depth are traversed sequentially
	// inside their task, bounding task count while keeping the spawn
	// storm above it.
	seqDepth int
}

func utsSize(s Size) utsParams {
	switch s {
	case Test:
		return utsParams{rootChildren: 16, maxDepth: 8, q1024: 450, slots: 4, seqDepth: 4}
	case Small:
		return utsParams{rootChildren: 64, maxDepth: 10, q1024: 470, slots: 4, seqDepth: 6}
	case Medium:
		return utsParams{rootChildren: 128, maxDepth: 12, q1024: 480, slots: 4, seqDepth: 9}
	case Huge:
		// Minutes-scale spawn storm for cancellation tests.
		return utsParams{rootChildren: 512, maxDepth: 17, q1024: 505, slots: 4, seqDepth: 12}
	default: // Paper-shaped geometric tree, scaled
		return utsParams{rootChildren: 256, maxDepth: 13, q1024: 490, slots: 4, seqDepth: 11}
	}
}

// utsChildren derives the child ids of a node from its id and depth.
func utsChildren(p utsParams, id uint64, depth int) []uint64 {
	if depth >= p.maxDepth {
		return nil
	}
	if depth == 0 {
		kids := make([]uint64, p.rootChildren)
		for i := range kids {
			kids[i] = hash64(id + uint64(i) + 1)
		}
		return kids
	}
	var kids []uint64
	for i := 0; i < p.slots; i++ {
		h := hash64(id ^ uint64(i)*0x9e3779b97f4a7c15)
		if h%1024 < p.q1024 {
			kids = append(kids, h)
		}
	}
	return kids
}

// utsCountSeq traverses a subtree sequentially.
func utsCountSeq(p utsParams, id uint64, depth int) int64 {
	count := int64(1)
	for _, c := range utsChildren(p, id, depth) {
		count += utsCountSeq(p, c, depth+1)
	}
	return count
}

// utsCountTask spawns one task per child above seqDepth.
func utsCountTask(rt Runtime, p utsParams, id uint64, depth int) int64 {
	if depth >= p.seqDepth {
		return utsCountSeq(p, id, depth)
	}
	var futures []Future
	for _, c := range utsChildren(p, id, depth) {
		c := c
		futures = append(futures, rt.Async(func() any {
			return utsCountTask(rt, p, c, depth+1)
		}))
	}
	count := int64(1)
	for _, f := range futures {
		count += f.Get().(int64)
	}
	return count
}

func utsRun(rt Runtime, size Size) int64 {
	p := utsSize(size)
	return utsCountTask(rt, p, 0x07357357, 0)
}

func utsRef(size Size) int64 {
	p := utsSize(size)
	return utsCountSeq(p, 0x07357357, 0)
}

// utsGraph mirrors the implicit tree's spawn structure (deterministic,
// derived from the same hash) with one 1.37 µs task per node — the real
// benchmark's exhaustive spawn pattern.
func utsGraph(size Size) *sim.Graph {
	p := utsSize(size)
	work := grainNs(1.37)
	bytes := taskBytes(utsIntensity, work)
	var build func(id uint64, depth int) *sim.Node
	build = func(id uint64, depth int) *sim.Node {
		n := &sim.Node{PreNs: work, PreBytes: bytes}
		for _, c := range utsChildren(p, id, depth) {
			n.Children = append(n.Children, build(c, depth+1))
		}
		return n
	}
	return &sim.Graph{Label: "uts", Root: build(0x07357357, 0)}
}

// utsIntensity: hash-dominated traversal, little off-core traffic.
const utsIntensity = 0.2e9

var utsBenchmark = register(&Benchmark{
	Name:            "uts",
	Class:           "Recursive Unbalanced",
	Sync:            "none",
	Granularity:     "very fine",
	PaperTaskUs:     1.37,
	PaperStdScaling: "fail",
	PaperHPXScaling: "to 10",
	MemIntensity:    utsIntensity,
	Run:             utsRun,
	RefChecksum:     utsRef,
	TaskGraph:       utsGraph,
})
