package tree

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

func TestRankArithmetic(t *testing.T) {
	if ParentRank(0, 4) != 0 {
		t.Fatal("root's parent must be itself")
	}
	// k=2: 0 -> {1,2}, 1 -> {3,4}, 2 -> {5,6}
	for child, parent := range map[int]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2} {
		if got := ParentRank(child, 2); got != parent {
			t.Fatalf("ParentRank(%d, 2) = %d, want %d", child, got, parent)
		}
	}
	kids := ChildRanks(1, 2, 7, nil)
	if len(kids) != 2 || kids[0] != 3 || kids[1] != 4 {
		t.Fatalf("ChildRanks(1,2,7) = %v", kids)
	}
	if kids := ChildRanks(3, 2, 7, nil); len(kids) != 0 {
		t.Fatalf("leaf has children: %v", kids)
	}
	if Depth(0, 2) != 0 || Depth(2, 2) != 1 || Depth(6, 2) != 2 {
		t.Fatal("depth arithmetic wrong")
	}
	// Every orphan of dead rank 1 (k=2) computes the same deterministic
	// repair order: grandparent 0, then sibling 2 of the dead parent.
	c := repairCandidates(1, 2, nil)
	if len(c) < 2 || c[0] != 0 || c[1] != 2 {
		t.Fatalf("repairCandidates(1,2) = %v, want [0 2]", c)
	}
	// Deeper: rank 7's parent 3 dies (k=2) -> gp 1, uncle 4, then 1's
	// repair chain (0, 2).
	c = repairCandidates(3, 2, nil)
	if len(c) != 4 || c[0] != 1 || c[1] != 4 || c[2] != 0 || c[3] != 2 {
		t.Fatalf("repairCandidates(3,2) = %v", c)
	}
}

// virtualClock is a manually advanced clock shared by a fleet.
type virtualClock struct{ t time.Time }

func (c *virtualClock) now() time.Time          { return c.t }
func (c *virtualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestFleet(t *testing.T, n, fanout, wireLeaves int) (*Fleet, *virtualClock) {
	t.Helper()
	clk := &virtualClock{t: time.Unix(1700000000, 0)}
	f, err := NewFleet(FleetConfig{
		N: n, Fanout: fanout, WireLeaves: wireLeaves,
		Interval: time.Second, Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, clk
}

// flatSum evaluates one counter across every live locality directly —
// the O(n) ground truth the tree must reproduce exactly.
func flatSum(t *testing.T, f *Fleet, typePath string) (sum float64, count int64) {
	t.Helper()
	for _, n := range f.Nodes {
		full, err := core.LocalityFullName(typePath, n.loc)
		if err != nil {
			t.Fatal(err)
		}
		v, err := n.reg.Evaluate(full, false)
		if err != nil {
			continue // gap (e.g. histogram slice)
		}
		if v.Valid() {
			sum += v.Float64()
			count++
		}
	}
	return sum, count
}

func TestFleetFoldMatchesFlatSweep(t *testing.T) {
	f, clk := newTestFleet(t, 21, 4, 0)
	clk.advance(time.Second)
	snap, err := f.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Localities != 21 {
		t.Fatalf("root folded %d localities, want 21", snap.Localities)
	}
	if snap.Partial || snap.StaleLocalities != 0 {
		t.Fatalf("healthy fleet reported partial/stale: %+v", snap)
	}
	if snap.Depth != Depth(20, 4) {
		t.Fatalf("root depth = %d, want %d", snap.Depth, Depth(20, 4))
	}

	byKey := map[string]core.Digest{}
	for _, e := range snap.Entries {
		byKey[e.Key] = e
	}
	for _, tp := range []string{"/threads/count/cumulative", "/threads/idle-rate", "/runtime/uptime"} {
		key := core.WildcardLocality(mustFullName(t, tp, 0))
		d, ok := byKey[key]
		if !ok {
			t.Fatalf("no digest for %s (have %v)", key, keys(byKey))
		}
		wantSum, wantCount := flatSum(t, f, tp)
		if d.Count != wantCount {
			t.Fatalf("%s count = %d, want %d", key, d.Count, wantCount)
		}
		if diff := d.Sum - wantSum; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s sum = %v, want %v", key, d.Sum, wantSum)
		}
		if d.Min > d.Max || d.Sum < d.Min*float64(d.Count)-1e-6 || d.Sum > d.Max*float64(d.Count)+1e-6 {
			t.Fatalf("%s moments inconsistent: %+v", key, d)
		}
	}

	// The histogram slice (every 8th rank) merged up: 21 localities ->
	// ranks 0, 8, 16 -> 3×32 observations at the root.
	hkey := core.WildcardLocality(mustFullName(t, "/threads/time/task-duration", 0))
	hd, ok := byKey[hkey]
	if !ok || hd.Hist == nil {
		t.Fatalf("no merged histogram at root: %+v", hd)
	}
	if hd.Count != 3 || hd.Hist.N != 3*32 {
		t.Fatalf("histogram fold = count %d, N %d; want 3 and 96", hd.Count, hd.Hist.N)
	}
	if _, ok := hd.Hist.Quantile(0.5); !ok {
		t.Fatal("merged histogram serves no median")
	}
}

func mustFullName(t *testing.T, typePath string, loc int64) string {
	t.Helper()
	full, err := core.LocalityFullName(typePath, loc)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func keys(m map[string]core.Digest) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestStaleAndDropComposition(t *testing.T) {
	f, clk := newTestFleet(t, 7, 2, 0)
	ctx := context.Background()
	clk.advance(time.Second)
	if _, err := f.Tick(ctx); err != nil {
		t.Fatal(err)
	}

	// Leaf 6 stops ticking. One missed round: still fresh enough
	// (staleAfter = 2×Interval).
	tickAllBut := func(skip int) {
		clk.advance(time.Second)
		for r := len(f.Nodes) - 1; r >= 0; r-- {
			if r == skip {
				continue
			}
			f.Nodes[r].Tick(ctx)
		}
	}
	tickAllBut(6)
	snap, _ := f.Root().TreeSnapshot()
	if snap.Partial || snap.Localities != 7 {
		t.Fatalf("one missed round already partial: %+v", snap)
	}

	// Once leaf 6's digest ages past staleAfter (2×Interval) it is
	// folded stale: root partial, but still counted.
	tickAllBut(6)
	tickAllBut(6)
	snap, _ = f.Root().TreeSnapshot()
	if !snap.Partial || snap.Localities != 7 || snap.StaleLocalities != 1 {
		t.Fatalf("stale subtree not labelled: %+v", snap)
	}
	// The per-key digests carry the stale share without going stale
	// themselves (partial-but-live composition).
	for _, e := range snap.Entries {
		if e.Key == core.WildcardLocality(mustFullName(t, "/threads/idle-rate", 0)) {
			if e.Stale != 1 || e.AllStale() {
				t.Fatalf("stale composition on %s: %+v", e.Key, e)
			}
		}
	}

	// Past dropAfter (4×Interval) the subtree is excluded entirely: no double
	// counting, count drops to 6, still partial.
	tickAllBut(6)
	tickAllBut(6)
	tickAllBut(6)
	snap, _ = f.Root().TreeSnapshot()
	if !snap.Partial || snap.Localities != 6 {
		t.Fatalf("dropped subtree still counted: %+v", snap)
	}
}

func TestInteriorDeathRepairs(t *testing.T) {
	f, clk := newTestFleet(t, 7, 2, 0)
	ctx := context.Background()
	clk.advance(time.Second)
	if _, err := f.Tick(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill interior rank 1 (children 3 and 4, parent 0).
	f.KillRank(1)
	clk.advance(time.Second)
	snap, err := f.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Children re-attached deterministically to the grandparent (root).
	if p := f.Nodes[3].Parent(); p != 0 {
		t.Fatalf("rank 3 re-attached to %d, want grandparent 0", p)
	}
	if p := f.Nodes[4].Parent(); p != 0 {
		t.Fatalf("rank 4 re-attached to %d, want grandparent 0", p)
	}
	if f.Nodes[3].Reparents() < 1 || f.Nodes[4].Reparents() < 1 {
		t.Fatal("re-parenting not counted")
	}

	// The root adopted the orphans, evicted the dead interior's digest
	// immediately (no double count), and labels the fold partial:
	// locality 1's own sample is gone until the node returns.
	if snap.Localities != 6 {
		t.Fatalf("root folded %d localities after repair, want 6", snap.Localities)
	}
	if !snap.Partial {
		t.Fatal("repaired fold not labelled partial")
	}
	if snap.Reparents < 2 {
		t.Fatalf("root reparents = %d, want >= 2", snap.Reparents)
	}

	// Sum check: the fold equals the flat sweep minus dead locality 1.
	byKey := map[string]core.Digest{}
	for _, e := range snap.Entries {
		byKey[e.Key] = e
	}
	key := core.WildcardLocality(mustFullName(t, "/threads/count/cumulative", 0))
	full1 := mustFullName(t, "/threads/count/cumulative", 1)
	v1, err := f.Reg.Evaluate(full1, false)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, _ := flatSum(t, f, "/threads/count/cumulative")
	wantSum -= v1.Float64()
	d := byKey[key]
	if d.Count != 6 {
		t.Fatalf("digest count = %d, want 6", d.Count)
	}
	if diff := d.Sum - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("repaired sum = %v, want %v", d.Sum, wantSum)
	}

	// Steady state after repair: next round is clean except the dead
	// locality, and no further re-parenting happens.
	re3 := f.Nodes[3].Reparents()
	clk.advance(time.Second)
	if _, err := f.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if f.Nodes[3].Reparents() != re3 {
		t.Fatal("repair flapped")
	}
}

func TestNodePushGenerationReplay(t *testing.T) {
	f, clk := newTestFleet(t, 3, 2, 0)
	ctx := context.Background()
	clk.advance(time.Second)
	if _, err := f.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	root := f.Root()
	child := f.Nodes[1]
	snap, err := child.TreeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the child's current generation must not change the
	// root's held state (retry idempotency).
	before := root.children[1].last.Gen
	if err := root.TreePush(snap); err != nil {
		t.Fatal(err)
	}
	if root.children[1].last.Gen != before {
		t.Fatal("replayed generation displaced state")
	}
	if err := root.TreePush(nil); err == nil {
		t.Fatal("nil digest accepted")
	}
}

func TestWireLeavesFoldThroughParcelServers(t *testing.T) {
	f, clk := newTestFleet(t, 7, 2, 3)
	ctx := context.Background()
	clk.advance(time.Second)
	snap, err := f.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Localities != 7 || snap.Partial {
		t.Fatalf("wire-leaf fleet fold = %+v, want all 7 localities", snap)
	}
	// The wire leaves really did go through loopback servers.
	if len(f.wires) != 3 {
		t.Fatalf("wire leaves = %d", len(f.wires))
	}
}

func TestExportValues(t *testing.T) {
	f, clk := newTestFleet(t, 7, 2, 0)
	ctx := context.Background()
	clk.advance(time.Second)
	if _, err := f.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	vals := f.Root().ExportValues(nil)
	if len(vals) == 0 {
		t.Fatal("no exported values")
	}
	var sawAvg, sawAge bool
	for _, v := range vals {
		if strings.Contains(v.Name, "/idle-rate@avg") {
			sawAvg = true
			if !v.Valid() {
				t.Fatalf("healthy digest stat not valid: %+v", v)
			}
		}
		if strings.Contains(v.Name, "tree/subtree-age-ns@child=1") {
			sawAge = true
			if v.Status == core.StatusStale {
				t.Fatalf("fresh subtree exported stale: %+v", v)
			}
		}
	}
	if !sawAvg || !sawAge {
		t.Fatalf("missing exported series (avg=%v age=%v): %v", sawAvg, sawAge, names(vals))
	}

	// Overlay gauges live in the shared registry under the locality's
	// instance.
	v, err := f.Reg.Evaluate("/agas{locality#0/total}/tree/children", false)
	if err != nil || v.Raw != 2 {
		t.Fatalf("children gauge = %+v, %v", v, err)
	}
	v, err = f.Reg.Evaluate("/agas{locality#0/total}/tree/depth", false)
	if err != nil || v.Raw != 0 {
		t.Fatalf("depth gauge = %+v, %v", v, err)
	}
}

func names(vals []core.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.Name
	}
	return out
}

func TestKilledNodeRefusesOps(t *testing.T) {
	f, clk := newTestFleet(t, 3, 2, 0)
	ctx := context.Background()
	clk.advance(time.Second)
	if _, err := f.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	f.KillRank(2)
	if _, err := f.Nodes[2].Tick(ctx); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("dead tick err = %v", err)
	}
	if err := f.Nodes[2].TreePush(&parcel.TreeDigest{Rank: 5, Gen: 9}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("dead push err = %v", err)
	}
	if _, err := f.Nodes[2].TreeSnapshot(); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("dead snapshot err = %v", err)
	}
}
