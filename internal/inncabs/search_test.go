package inncabs

// Tests for the two branch-and-bound benchmarks (floorplan, qap) and
// the co-dependent pair (intersim, round).

import (
	"sync/atomic"
	"testing"
)

func TestFloorplanStateFitsAndPlace(t *testing.T) {
	p := floorplanParams{gridW: 8, gridH: 8, cells: 1}
	s := newFloorplanState(p)
	if !s.fits(0, 0, cellShape{3, 2}) {
		t.Fatal("empty grid rejects a fitting shape")
	}
	if s.fits(6, 0, cellShape{3, 2}) {
		t.Fatal("shape beyond the right edge accepted")
	}
	if s.fits(0, 7, cellShape{3, 2}) {
		t.Fatal("shape beyond the bottom edge accepted")
	}
	s.place(0, 0, cellShape{3, 2})
	if s.maxX != 3 || s.maxY != 2 || s.bound() != 5 {
		t.Fatalf("bounding box = %dx%d", s.maxX, s.maxY)
	}
	if s.fits(2, 1, cellShape{2, 2}) {
		t.Fatal("overlap accepted")
	}
	if !s.fits(3, 0, cellShape{2, 2}) {
		t.Fatal("adjacent placement rejected")
	}
}

func TestFloorplanCloneIsDeep(t *testing.T) {
	p := floorplanParams{gridW: 8, gridH: 8}
	s := newFloorplanState(p)
	s.place(0, 0, cellShape{2, 2})
	c := s.clone()
	c.place(2, 0, cellShape{2, 2})
	if s.maxX != 2 || s.fits(2, 0, cellShape{1, 1}) == false {
		t.Fatal("clone mutated its parent")
	}
}

func TestFloorplanAnchorsBounded(t *testing.T) {
	p := floorplanParams{gridW: 10, gridH: 10}
	s := newFloorplanState(p)
	if got := s.anchors(); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("empty-grid anchors = %v", got)
	}
	s.place(0, 0, cellShape{4, 3})
	for _, a := range s.anchors() {
		if a[0] > s.maxX || a[1] > s.maxY {
			t.Fatalf("anchor %v outside the box frontier", a)
		}
	}
}

func TestFloorplanOptimumIndependentOfParallelism(t *testing.T) {
	rt := hpxTestRuntime(t, 4)
	p := floorplanSize(Test)
	cells := floorplanCells(p)
	results := map[int]int64{}
	for _, depth := range []int{0, 1, 3} {
		var best atomic.Int64
		best.Store(int64(p.gridW + p.gridH + 1))
		floorplanSearch(rt, cells, newFloorplanState(p), 0, &best, depth)
		results[depth] = best.Load()
	}
	if results[0] != results[1] || results[1] != results[3] {
		t.Fatalf("optimum depends on parallel depth: %v", results)
	}
	if results[0] >= int64(p.gridW+p.gridH+1) {
		t.Fatal("no placement found")
	}
}

// qapBrute exhaustively evaluates all permutations for small n.
func qapBrute(flow, dist [][]int32) int64 {
	n := len(flow)
	perm := make([]int8, n)
	used := make([]bool, n)
	best := int64(1) << 40
	var rec func(k int, cost int64)
	rec = func(k int, cost int64) {
		if k == n {
			if cost < best {
				best = cost
			}
			return
		}
		for loc := 0; loc < n; loc++ {
			if used[loc] {
				continue
			}
			add := qapPartialCost(flow, dist, perm, k, int8(loc))
			used[loc] = true
			perm[k] = int8(loc)
			rec(k+1, cost+add)
			used[loc] = false
		}
	}
	rec(0, 0)
	return best
}

func TestQAPMatchesBruteForce(t *testing.T) {
	rt := hpxTestRuntime(t, 4)
	flow, dist := qapInput(7)
	want := qapBrute(flow, dist)
	var best atomic.Int64
	best.Store(1 << 40)
	qapSearch(rt, flow, dist, make([]int8, 7), 0, 0, 0, &best, 2)
	if got := best.Load(); got != want {
		t.Fatalf("B&B optimum %d != brute force %d", got, want)
	}
}

func TestQAPCostSymmetry(t *testing.T) {
	flow, dist := qapInput(6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if flow[i][j] != flow[j][i] || dist[i][j] != dist[j][i] {
				t.Fatal("input matrices not symmetric")
			}
		}
	}
	if flow[2][2] != 0 || dist[3][3] != 0 {
		t.Fatal("diagonal not zero")
	}
}

func TestIntersimConservation(t *testing.T) {
	// Messages either get delivered or stay in flight: nothing is lost.
	// With TTL bounded, running long enough delivers everything.
	p := intersimParams{switches: 4, cycles: 64, seedMsgs: 3, ttl: 10}
	_ = p
	// Count deliveries through the checksum decomposition: checksum =
	// delivered*1000003 + hops; after ttl cycles all messages are gone.
	rt := hpxTestRuntime(t, 2)
	sum := intersimRunOn(rt, Test)
	delivered := sum / 1000003
	pTest := intersimSize(Test)
	total := int64(pTest.switches * pTest.seedMsgs)
	if delivered != total {
		t.Fatalf("delivered %d of %d seeded messages", delivered, total)
	}
}

func TestRoundTokenConservation(t *testing.T) {
	rt := hpxTestRuntime(t, 4)
	p := roundSize(Test)
	// Total tokens are conserved: transfers only move them around the
	// ring. Initial total = sum(i*100).
	var initial int64
	for i := 0; i < p.players; i++ {
		initial += int64(i * 100)
	}
	players := make([]*player, p.players)
	for i := range players {
		players[i] = &player{mu: rt.NewMutex(), tokens: int64(i * 100)}
	}
	for r := 0; r < p.rounds; r++ {
		var futures []Future
		for i := range players {
			i, r := i, r
			futures = append(futures, rt.Async(func() any {
				amount := int64(roundKernel(uint64(i)*2654435761+uint64(r), 100) % 97)
				a, b := players[i], players[(i+1)%len(players)]
				first, second := a, b
				if (i+1)%len(players) < i {
					first, second = b, a
				}
				first.mu.Lock()
				second.mu.Lock()
				a.tokens -= amount
				b.tokens += amount
				second.mu.Unlock()
				first.mu.Unlock()
				return nil
			}))
		}
		for _, f := range futures {
			f.Get()
		}
	}
	var final int64
	for _, pl := range players {
		final += pl.tokens
	}
	if final != initial {
		t.Fatalf("tokens not conserved: %d -> %d", initial, final)
	}
}

func TestRoundKernelDeterministic(t *testing.T) {
	if roundKernel(42, 1000) != roundKernel(42, 1000) {
		t.Fatal("kernel not deterministic")
	}
	if roundKernel(42, 1000) == roundKernel(43, 1000) {
		t.Fatal("kernel ignores its seed")
	}
}
