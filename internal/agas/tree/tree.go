// Package tree implements the hierarchical counter aggregation overlay:
// a deterministic k-ary reduction tree over localities in which every
// node samples its own registry with one zero-alloc batch, folds its
// children's subtree digests with the commutative core.Digest algebra,
// and forwards exactly one bounded parcel upward per tick. The root's
// per-tick cost is O(k·log_k n) parcels instead of the flat monitor's
// O(n), which is what makes a 10k-locality fleet observable from one
// process.
//
// Freshness is explicit, never assumed: each subtree digest carries its
// sample generation and fold time, a parent serves a child's data as
// stale once it misses a round (older than 2×Interval) and drops it
// entirely after 4×Interval, and anything less than a full, current fold is labelled
// Partial all the way to the root. Interior failures self-heal: a child
// whose parent stops accepting pushes re-attaches to its grandparent
// (walking further up the ancestor chain if needed) by pure rank
// arithmetic — no coordination, no new protocol — and the adopting node
// evicts the dead interior's digest the moment the first orphan arrives,
// so a repaired subtree is never counted twice.
package tree

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

// ErrNodeDown reports an operation on a killed node — the in-process
// stand-in for a crashed locality, treated by peers exactly like a
// transport failure.
var ErrNodeDown = errors.New("tree: node is down")

// Transport pushes one subtree digest to a peer node. Implementations:
// LocalTransport (same-process fleets) and ClientTransport (loopback or
// remote parcel wire).
type Transport interface {
	Push(ctx context.Context, d *parcel.TreeDigest) error
}

// Config parameterises one overlay node.
type Config struct {
	// Fanout is k, the tree arity. Default 4.
	Fanout int
	// Interval is the expected tick period. It sizes the freshness
	// windows: a child older than staleAfter is folded as stale, one
	// older than dropAfter is excluded from the fold entirely. Dropping
	// is what prevents double-counting once the child re-attaches
	// elsewhere.
	Interval time.Duration
	// Counters are the counter type paths every locality samples, e.g.
	// "/threads/idle-rate"; each node binds them against its own
	// locality instance.
	Counters []string
	// Resolve returns a transport to the node holding the given rank.
	// Required on non-root nodes; consulted again after re-parenting.
	Resolve func(rank int) (Transport, error)
	// Now is the clock (default time.Now); tests and the fleet bench
	// substitute a virtual one.
	Now func() time.Time
}

// pushTimeout bounds one upward push.
const pushTimeout = 2 * time.Second

// staleAfter and dropAfter are the freshness windows in ticks.
func (c Config) staleAfter() time.Duration { return 2 * c.Interval }
func (c Config) dropAfter() time.Duration  { return 4 * c.Interval }

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = 4
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// ParentRank returns a rank's structural parent in the k-ary layout
// (rank 0 is the root and its own parent).
func ParentRank(rank, k int) int {
	if rank <= 0 {
		return 0
	}
	return (rank - 1) / k
}

// ChildRanks appends rank's structural children under fanout k within a
// fleet of n ranks.
func ChildRanks(rank, k, n int, dst []int) []int {
	for c := k*rank + 1; c <= k*rank+k && c < n; c++ {
		dst = append(dst, c)
	}
	return dst
}

// Depth returns a rank's depth in edges below the root.
func Depth(rank, k int) int {
	d := 0
	for rank > 0 {
		rank = ParentRank(rank, k)
		d++
	}
	return d
}

// repairCandidates is the deterministic re-attachment order when the
// parent stops answering: first the grandparent, then the failed
// parent's siblings ascending, then recursively the same list one level
// higher. Every orphan of one dead interior computes the same list, so
// the repaired topology is a function of (dead set, rank arithmetic)
// alone.
func repairCandidates(parent, k int, dst []int) []int {
	for parent > 0 {
		gp := ParentRank(parent, k)
		dst = append(dst, gp)
		for c := k*gp + 1; c <= k*gp+k; c++ {
			if c != parent {
				dst = append(dst, c)
			}
		}
		parent = gp
	}
	return dst
}

// childState is what a parent holds per attached child subtree.
type childState struct {
	last *parcel.TreeDigest
	recv time.Time
}

// Node is one overlay participant: a sampler of its own locality, an
// aggregator of its children, and a pusher to its parent.
type Node struct {
	reg  *core.Registry
	loc  int64
	rank int
	cfg  Config

	set *core.BindSet

	mu        sync.Mutex
	dead      bool
	parent    int // current parent rank (-1 once fallen back past root)
	transport Transport
	children  map[int]*childState
	// evicted holds structural children whose digests were evicted when
	// their orphans re-attached here: the interior is dead, its own
	// locality's sample is missing, and the fold stays Partial until the
	// rank pushes again.
	evicted   map[int]bool
	gen       int64
	snapshot  *parcel.TreeDigest
	reparents int64

	// Overlay gauges, exported through the node's registry as
	// /agas{locality#L/total}/tree/*.
	depthC     *core.RawCounter
	childrenC  *core.RawCounter
	reparentsC *core.RawCounter
	partialC   *core.RawCounter
	pushNsC    *core.RawCounter

	// scratch buffers reused across ticks (zero steady-state allocs on
	// the sampling path).
	valBuf  []core.Value
	keyBuf  []string
	digests map[string]*core.Digest
}

// NewNode builds the overlay node for one locality. The registry may be
// private to the locality (wire fleets) or shared (in-process fleets —
// counter names carry the locality id, so one registry can host the
// whole simulated fleet without per-locality registry overhead).
// Counters that don't resolve yet bind leniently and are skipped until
// registered.
func NewNode(reg *core.Registry, locality int64, rank int, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(cfg.Counters))
	for _, tp := range cfg.Counters {
		full, err := core.LocalityFullName(tp, locality)
		if err != nil {
			return nil, fmt.Errorf("tree: counter %q: %w", tp, err)
		}
		names = append(names, full)
	}
	n := &Node{
		reg: reg, loc: locality, rank: rank, cfg: cfg,
		set:      reg.BindSetLenient(names),
		parent:   ParentRank(rank, cfg.Fanout),
		children: map[int]*childState{},
		digests:  map[string]*core.Digest{},
	}
	mk := func(counter, help, unit string) *core.RawCounter {
		return core.NewLocalityRaw("agas", "tree/"+counter, locality, help, unit)
	}
	n.depthC = mk("depth", "this node's depth in the aggregation overlay (edges below root)", core.UnitNone)
	n.childrenC = mk("children", "child subtrees currently attached to this node", core.UnitNone)
	n.reparentsC = mk("reparents", "re-parenting repairs performed by this node", core.UnitEvents)
	n.partialC = mk("partial-subtrees", "attached subtrees folded stale or dropped last tick", core.UnitNone)
	n.pushNsC = mk("push-ns", "last tick's fold+push cost", core.UnitNanoseconds)
	for _, c := range []*core.RawCounter{n.depthC, n.childrenC, n.reparentsC, n.partialC, n.pushNsC} {
		if err := reg.Register(c); err != nil {
			return nil, err
		}
	}
	n.depthC.Add(int64(Depth(rank, cfg.Fanout)))
	return n, nil
}

// Rank returns the node's overlay rank.
func (n *Node) Rank() int { return n.rank }

// Locality returns the node's locality id.
func (n *Node) Locality() int64 { return n.loc }

// Parent returns the current parent rank (which repairs may have moved
// above the structural parent).
func (n *Node) Parent() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parent
}

// Reparents returns how many re-parenting repairs this node performed.
func (n *Node) Reparents() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reparents
}

// Kill marks the node dead: pushes to it, pulls from it and its own
// ticks all fail, as on a crashed locality.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dead = true
}

// TreePush implements parcel.TreeNode: accept one child subtree's
// digest. Pushes are generation-keyed — replays and reordered retries
// of older folds are dropped — and a push from a rank deeper than a
// structural child evicts the dead interior it must have replaced, so a
// re-attached subtree never counts twice.
func (n *Node) TreePush(d *parcel.TreeDigest) error {
	if d == nil {
		return errors.New("tree: nil digest")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return ErrNodeDown
	}
	cs := n.children[d.Rank]
	if cs == nil {
		cs = &childState{}
		n.children[d.Rank] = cs
		n.adoptLocked(d.Rank)
	}
	delete(n.evicted, d.Rank) // a push from an evicted rank means it is back
	if cs.last != nil && d.Gen <= cs.last.Gen {
		return nil // replay of an already-folded generation
	}
	cs.last = d
	cs.recv = n.cfg.Now()
	return nil
}

// adoptLocked handles a first push from rank r. If r is not one of this
// node's structural children, it is an orphan re-attached by repair;
// the structural child whose subtree contains r is therefore dead, and
// holding on to its digest would double-count the orphan, so it is
// evicted immediately.
func (n *Node) adoptLocked(r int) {
	k := n.cfg.Fanout
	if ParentRank(r, k) == n.rank {
		return // structural child
	}
	// Walk the orphan's ancestor chain; the ancestor that is our direct
	// structural child is the interior it escaped from.
	for a := ParentRank(r, k); a > n.rank; a = ParentRank(a, k) {
		if ParentRank(a, k) == n.rank {
			if _, held := n.children[a]; held {
				delete(n.children, a)
				if n.evicted == nil {
					n.evicted = map[int]bool{}
				}
				n.evicted[a] = true
			}
			return
		}
	}
}

// TreeSnapshot returns the latest folded view; a monitor reads the
// root's in process.
func (n *Node) TreeSnapshot() (*parcel.TreeDigest, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return nil, ErrNodeDown
	}
	if n.snapshot == nil {
		return nil, errors.New("tree: no fold yet")
	}
	return n.snapshot, nil
}

// Tick performs one overlay round: sample the local registry, fold the
// attached children, publish the snapshot, and (on non-root nodes) push
// it upward — repairing the parent link if the push fails like a dead
// peer. Returns the snapshot.
func (n *Node) Tick(ctx context.Context) (*parcel.TreeDigest, error) {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return nil, ErrNodeDown
	}
	start := n.cfg.Now()

	// Local sample: one zero-alloc batch over the bound counters.
	n.valBuf = n.set.EvaluateBatch(n.valBuf[:0], false)
	for k := range n.digests {
		delete(n.digests, k)
	}
	for i, v := range n.valBuf {
		key := core.WildcardLocality(v.Name)
		d := n.digests[key]
		if d == nil {
			d = &core.Digest{Key: key}
		}
		if !d.FoldValue(v) {
			continue // unknown/invalid: a gap, not a zero
		}
		n.digests[key] = d
		// Histogram-backed counters carry their full distribution so the
		// root answers fleet quantiles, not just moments.
		if h := n.set.Handle(i); h.Valid() {
			if ds, ok := h.Counter().(core.DistributionSnapshotter); ok {
				hs := ds.HistogramSnapshot().Compact()
				d.Merge(core.Digest{Hist: &hs})
			}
		}
	}

	// Fold children by age class: fresh folds as-is, stale folds with
	// every sample reclassified, dropped is excluded (it re-attached
	// elsewhere or is gone — either way its data no longer belongs here).
	snap := &parcel.TreeDigest{
		Root: n.loc, Rank: n.rank,
		Localities: 1, Depth: 0,
	}
	partialChildren := int64(0)
	for r, cs := range n.children {
		if cs.last == nil {
			continue
		}
		age := start.Sub(cs.recv)
		if age > n.cfg.dropAfter() {
			// Excluded and remembered: the subtree stays a labelled gap
			// (not silently forgotten) until its root pushes again.
			delete(n.children, r)
			if n.evicted == nil {
				n.evicted = map[int]bool{}
			}
			n.evicted[r] = true
			continue
		}
		stale := age > n.cfg.staleAfter()
		if stale {
			snap.Partial = true
			partialChildren++
			snap.StaleLocalities += cs.last.Localities - cs.last.StaleLocalities
		}
		for _, e := range cs.last.Entries {
			if stale {
				e.MarkStale()
			}
			d := n.digests[e.Key]
			if d == nil {
				d = &core.Digest{Key: e.Key}
				n.digests[e.Key] = d
			}
			d.Merge(e)
		}
		snap.Localities += cs.last.Localities
		snap.StaleLocalities += cs.last.StaleLocalities
		snap.Reparents += cs.last.Reparents
		if cs.last.Partial {
			snap.Partial = true
		}
		if cs.last.Depth+1 > snap.Depth {
			snap.Depth = cs.last.Depth + 1
		}
	}

	if len(n.evicted) > 0 {
		// Subtrees evicted on adoption or dropped for age are still
		// gone: their data is missing from this fold.
		snap.Partial = true
		partialChildren += int64(len(n.evicted))
	}

	n.gen++
	snap.Gen = n.gen
	snap.Time = start
	snap.Reparents += n.reparents
	n.keyBuf = n.keyBuf[:0]
	for k := range n.digests {
		n.keyBuf = append(n.keyBuf, k)
	}
	sort.Strings(n.keyBuf)
	snap.Entries = make([]core.Digest, 0, len(n.keyBuf))
	for _, k := range n.keyBuf {
		snap.Entries = append(snap.Entries, *n.digests[k])
	}
	n.snapshot = snap
	n.childrenC.Set(int64(len(n.children)))
	n.partialC.Set(partialChildren)

	rank := n.rank
	parent := n.parent
	transport := n.transport
	n.mu.Unlock()

	var pushErr error
	if rank != 0 && parent >= 0 {
		pushErr = n.pushUp(ctx, snap, parent, transport)
	}
	n.pushNsC.Set(n.cfg.Now().Sub(start).Nanoseconds())
	return snap, pushErr
}

// pushUp ships the snapshot to the current parent, advancing through
// the deterministic repair candidates when the peer looks dead. Bounded
// by the candidate list length, so one tick never spins.
func (n *Node) pushUp(ctx context.Context, snap *parcel.TreeDigest, parent int, transport Transport) error {
	candidates := repairCandidates(parent, n.cfg.Fanout, []int{parent})
	baseReparents := snap.Reparents
	for _, cand := range candidates {
		if cand == n.rank {
			continue // never adopt ourselves
		}
		if transport == nil || cand != parent {
			if n.cfg.Resolve == nil {
				return fmt.Errorf("tree: rank %d has no Resolve", n.rank)
			}
			t, err := n.cfg.Resolve(cand)
			if err != nil {
				continue
			}
			transport = t
		}
		if cand != parent {
			// This push, if it lands, is itself the repair — count it in
			// the digest being delivered, not one round later.
			snap.Reparents = baseReparents + 1
		}
		pctx, cancel := context.WithTimeout(ctx, pushTimeout)
		err := transport.Push(pctx, snap)
		cancel()
		if err == nil {
			n.mu.Lock()
			if cand != n.parent {
				n.reparents++
				n.reparentsC.Inc()
			}
			n.parent = cand
			n.transport = transport
			n.mu.Unlock()
			return nil
		}
		if !isDownErr(err) {
			return err
		}
		transport = nil
	}
	return fmt.Errorf("tree: rank %d found no live parent (tried %v): %w",
		n.rank, candidates, ErrNodeDown)
}

// isDownErr classifies a push failure as "the peer is not there":
// breaker-open, dial failure, killed in-process node, or a peer that is
// up but no longer runs a tree node. Anything else (timeouts on a live
// connection, protocol errors) is ambiguous and does NOT trigger
// re-parenting — the generation key makes retrying on the same parent
// safe.
func isDownErr(err error) bool {
	if errors.Is(err, parcel.ErrCircuitOpen) || errors.Is(err, ErrNodeDown) ||
		errors.Is(err, parcel.ErrNoTreeNode) {
		return true
	}
	var de *parcel.DialError
	return errors.As(err, &de)
}

// LocalTransport delivers pushes to a same-process node directly.
type LocalTransport struct{ Dst *Node }

// Push implements Transport.
func (t LocalTransport) Push(_ context.Context, d *parcel.TreeDigest) error {
	return t.Dst.TreePush(d)
}

// ClientTransport delivers pushes over a parcel client.
type ClientTransport struct{ Client *parcel.Client }

// Push implements Transport.
func (t ClientTransport) Push(ctx context.Context, d *parcel.TreeDigest) error {
	return t.Client.TreePush(ctx, d)
}

// ExportValues renders the node's latest fold as counter values for the
// telemetry plane: every digest entry's statistics plus one freshness
// series per attached child subtree
// (/agas{locality#L/total}/tree/subtree-age-ns@child=R, StatusStale when
// the subtree has missed a round). Appends to dst.
func (n *Node) ExportValues(dst []core.Value) []core.Value {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.snapshot == nil {
		return dst
	}
	at := n.snapshot.Time
	for _, e := range n.snapshot.Entries {
		dst = e.Values(at, dst)
	}
	ageName := core.LocalityName("agas", "tree/subtree-age-ns", n.loc, -1)
	ranks := make([]int, 0, len(n.children))
	for r := range n.children {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		cs := n.children[r]
		if cs.last == nil {
			continue
		}
		nm := ageName
		nm.Parameters = fmt.Sprintf("child=%d", r)
		age := at.Sub(cs.recv)
		status := core.StatusValid
		if age > n.cfg.staleAfter() {
			status = core.StatusStale
		}
		dst = append(dst, core.Value{
			Name: nm.String(), Raw: age.Nanoseconds(),
			Count: int64(cs.last.Localities), Time: at, Status: status,
		})
	}
	return dst
}
