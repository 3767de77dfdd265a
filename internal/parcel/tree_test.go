package parcel

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// stubTreeNode is a TreeNode double that keeps the newest generation it
// was pushed, like the real aggregation-tree node.
type stubTreeNode struct {
	mu     sync.Mutex
	pushes int
	last   *TreeDigest
}

func (s *stubTreeNode) TreePush(d *TreeDigest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushes++
	if s.last == nil || d.Gen > s.last.Gen {
		s.last = d
	}
	return nil
}

// held returns the digest the node keeps and how many pushes reached it.
func (s *stubTreeNode) held() (*TreeDigest, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.pushes
}

// TestTreePushRoundTrip: the node receives a pushed digest field for
// field — identity, freshness, entry and histogram survive the wire.
func TestTreePushRoundTrip(t *testing.T) {
	_, _, srv, cli := newServerFixture(t)
	tn := &stubTreeNode{}
	srv.SetTreeNode(tn)

	hist := core.HistogramSnapshot{Counts: []int64{3, 0, 2}, N: 5, Sum: 12}
	d := &TreeDigest{
		Root: 7, Rank: 3, Gen: 1, Time: time.Now(),
		Localities: 5, Depth: 2, Partial: true, StaleLocalities: 1,
		Reparents: 2,
		Entries: []core.Digest{{
			Key: "/threads{locality#*/total}/idle-rate",
			Sum: 10, Min: 1, Max: 4, Count: 5, Stale: 1,
			Hist: &hist,
		}},
	}
	if err := cli.TreePush(context.Background(), d); err != nil {
		t.Fatalf("TreePush: %v", err)
	}

	got, _ := tn.held()
	if got == nil || got == d {
		t.Fatalf("node holds %p, want a decoded copy of the pushed digest", got)
	}
	if got.Root != 7 || got.Rank != 3 || got.Gen != 1 {
		t.Fatalf("identity lost over the wire: %+v", got)
	}
	if !got.Time.Equal(d.Time) || got.Localities != 5 || got.Depth != 2 || !got.Partial ||
		got.StaleLocalities != 1 || got.Reparents != 2 {
		t.Fatalf("freshness lost over the wire: %+v", got)
	}
	if len(got.Entries) != 1 {
		t.Fatalf("entries = %+v", got.Entries)
	}
	e := got.Entries[0]
	if e.Key != d.Entries[0].Key || e.Sum != 10 || e.Min != 1 || e.Max != 4 || e.Count != 5 || e.Stale != 1 {
		t.Fatalf("digest entry lost over the wire: %+v", e)
	}
	if e.Hist == nil || e.Hist.N != 5 || e.Hist.Sum != 12 || !slices.Equal(e.Hist.Counts, hist.Counts) {
		t.Fatalf("histogram lost over the wire: %+v", e.Hist)
	}
}

func TestTreeOpsWithoutNode(t *testing.T) {
	_, _, _, cli := newServerFixture(t)
	err := cli.TreePush(context.Background(), &TreeDigest{Gen: 1})
	if !errors.Is(err, ErrNoTreeNode) {
		t.Fatalf("push without node: err = %v, want ErrNoTreeNode", err)
	}
}

func TestTreePushBounds(t *testing.T) {
	_, _, srv, cli := newServerFixture(t)
	srv.SetTreeNode(&stubTreeNode{})

	// Client-side bound: an oversized digest never leaves the process.
	big := &TreeDigest{Gen: 1, Entries: make([]core.Digest, maxTreeEntries+1)}
	if err := cli.TreePush(context.Background(), big); err == nil {
		t.Fatal("oversized digest accepted client-side")
	}
	if err := cli.TreePush(context.Background(), nil); err == nil {
		t.Fatal("nil digest accepted")
	}

	// Server-side bound: a hand-rolled oversized request is rejected as a
	// protocol error, not dispatched to the node.
	srvBefore := srv.meters.errors.Load()
	resp, err := cli.roundTripContext(context.Background(), request{Op: "tree_push", Tree: big})
	if err == nil {
		t.Fatalf("server accepted oversized digest: %+v", resp)
	}
	if resp.Code != codeProtocol {
		t.Fatalf("oversized push code = %q (err %v), want protocol", resp.Code, err)
	}
	if srv.meters.errors.Load() <= srvBefore {
		t.Fatal("oversized push not metered as a server error")
	}
	if _, err := cli.roundTripContext(context.Background(), request{Op: "tree_push"}); err == nil {
		t.Fatal("server accepted tree_push without a digest")
	}
}

func TestTreePushGenerationKeyed(t *testing.T) {
	_, _, srv, cli := newServerFixture(t)
	tn := &stubTreeNode{}
	srv.SetTreeNode(tn)

	// A re-delivered older generation (the retry/reconnect case that makes
	// the op idempotent) must not displace the newer digest.
	for _, gen := range []int64{2, 1, 2} {
		d := &TreeDigest{Root: 1, Gen: gen, Localities: int(gen)}
		if err := cli.TreePush(context.Background(), d); err != nil {
			t.Fatalf("TreePush gen %d: %v", gen, err)
		}
	}
	got, pushes := tn.held()
	if got.Gen != 2 || got.Localities != 2 {
		t.Fatalf("stale generation displaced newer digest: %+v", got)
	}
	if pushes != 3 {
		t.Fatalf("pushes = %d, want 3", pushes)
	}

	// Detach: pushes fail cleanly again.
	srv.SetTreeNode(nil)
	if err := cli.TreePush(context.Background(), &TreeDigest{Root: 1, Gen: 3}); !errors.Is(err, ErrNoTreeNode) {
		t.Fatalf("push after detach: err = %v, want ErrNoTreeNode", err)
	}
}
