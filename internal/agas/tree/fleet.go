package tree

// Fleet builds a whole simulated aggregation overlay in one process:
// n localities, each with task-runtime counters derived from the paper's
// simulator, arranged in the deterministic k-ary layout. All in-process
// localities share ONE registry — counter names carry the locality id,
// so the shared registry hosts the fleet at a fraction of the per-
// locality-registry footprint (a private registry costs ~8KB of cost
// histogram alone; 10k of them would be ~80MB for nothing).
//
// To keep the transport honest, the bottom fan-in can be real: the last
// WireLeaves leaves run their own registry behind a loopback parcel
// server and push digests through the actual tree_push wire op, breaker
// and all, while the interior stays in-process.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parcel"
	"repro/internal/sim"
)

// FleetCounters is the default counter set every fleet locality samples
// into the overlay.
var FleetCounters = []string{
	"/threads/count/cumulative",
	"/threads/time/cumulative",
	"/threads/idle-rate",
	"/threads/time/task-duration",
	"/runtime/uptime",
}

// FleetConfig parameterises a simulated overlay.
type FleetConfig struct {
	// N is the number of localities (= overlay ranks).
	N int
	// Fanout is the tree arity (default 4).
	Fanout int
	// WireLeaves is how many of the deepest leaves attach over real
	// loopback parcel servers instead of in-process transports.
	WireLeaves int
	// Counters overrides FleetCounters when non-nil.
	Counters []string
	// Interval is the overlay tick period (freshness windows derive from
	// it; the fleet itself ticks on demand).
	Interval time.Duration
	// Now substitutes a virtual clock.
	Now func() time.Time
}

// wireLeaf is one leaf locality running behind a real parcel server.
type wireLeaf struct {
	node *Node
	srv  *parcel.Server
	cli  *parcel.Client // to the structural parent's server
}

// Fleet is a fully wired simulated overlay.
type Fleet struct {
	// Reg is the registry shared by all in-process localities; the root's
	// counters (and every interior's) live here.
	Reg *core.Registry
	// Nodes holds every overlay node, indexed by rank. Rank r is
	// locality r.
	Nodes []*Node

	cfg     FleetConfig
	servers map[int]*parcel.Server // loopback servers for wire parents
	clients []*parcel.Client
	wires   []*wireLeaf
}

// NewFleet builds the overlay: shared-registry nodes for the interior
// and in-process leaves, simulator-derived counters per locality, and
// (optionally) real parcel servers under the deepest leaves.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("tree: fleet size %d", cfg.N)
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Counters == nil {
		cfg.Counters = FleetCounters
	}
	if cfg.WireLeaves > cfg.N-1 {
		cfg.WireLeaves = cfg.N - 1
	}
	reg := core.NewRegistry()
	f := &Fleet{Reg: reg, cfg: cfg, servers: map[int]*parcel.Server{}}

	profiles, err := fleetProfiles()
	if err != nil {
		return nil, err
	}

	f.Nodes = make([]*Node, cfg.N)
	nodeCfg := Config{
		Fanout:   cfg.Fanout,
		Interval: cfg.Interval,
		Counters: cfg.Counters,
		Now:      cfg.Now,
		Resolve:  f.resolve,
	}
	wireStart := cfg.N - cfg.WireLeaves
	for r := 0; r < cfg.N; r++ {
		nodeReg := reg
		if r >= wireStart {
			// Wire leaves own a private registry, like a real remote
			// locality would.
			nodeReg = core.NewRegistry()
		}
		if err := registerFleetLocality(nodeReg, int64(r), profiles[r%len(profiles)], r); err != nil {
			f.Close()
			return nil, err
		}
		n, err := NewNode(nodeReg, int64(r), r, nodeCfg)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes[r] = n
	}

	// Wire the bottom fan-in: each wire leaf pushes to its structural
	// parent through a loopback parcel server attached to that parent.
	for r := wireStart; r < cfg.N; r++ {
		leaf := f.Nodes[r]
		parent := ParentRank(r, cfg.Fanout)
		srv, err := f.serverFor(parent)
		if err != nil {
			f.Close()
			return nil, err
		}
		cli, err := parcel.Dial(srv.Addr(), nil, int64(r))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.clients = append(f.clients, cli)
		leaf.mu.Lock()
		leaf.transport = ClientTransport{Client: cli}
		leaf.mu.Unlock()
		f.wires = append(f.wires, &wireLeaf{node: leaf, srv: srv, cli: cli})
	}
	return f, nil
}

// serverFor lazily starts a loopback parcel server fronting rank r's
// node, so wire leaves (and tests) can reach it through the real
// transport.
func (f *Fleet) serverFor(r int) (*parcel.Server, error) {
	if srv, ok := f.servers[r]; ok {
		return srv, nil
	}
	srv, err := parcel.Serve("127.0.0.1:0", core.NewRegistry(), int64(r))
	if err != nil {
		return nil, err
	}
	srv.SetTreeNode(f.Nodes[r])
	f.servers[r] = srv
	return srv, nil
}

// resolve maps a rank to a transport: in-process nodes are reached
// directly, wire-fronted ones through their server.
func (f *Fleet) resolve(rank int) (Transport, error) {
	if rank < 0 || rank >= len(f.Nodes) {
		return nil, fmt.Errorf("tree: no rank %d", rank)
	}
	return LocalTransport{Dst: f.Nodes[rank]}, nil
}

// Root returns the overlay root.
func (f *Fleet) Root() *Node { return f.Nodes[0] }

// Tick runs one overlay round, deepest ranks first so every digest
// reaches the root within the round (in a distributed deployment the
// same convergence takes depth ticks; ordering here just makes tests
// and benchmarks deterministic). Returns the root's snapshot.
func (f *Fleet) Tick(ctx context.Context) (*parcel.TreeDigest, error) {
	var rootSnap *parcel.TreeDigest
	var firstErr error
	for r := len(f.Nodes) - 1; r >= 0; r-- {
		snap, err := f.Nodes[r].Tick(ctx)
		if r == 0 {
			rootSnap = snap
		}
		if err != nil && firstErr == nil && !isDownErr(err) {
			// Down errors are the overlay's normal partial/repair regime,
			// visible in the digests; anything else is a real fault.
			firstErr = err
		}
	}
	return rootSnap, firstErr
}

// Close shuts down any loopback servers and clients.
func (f *Fleet) Close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// fleetProfiles runs the paper's simulator once per workload profile;
// localities reuse the handful of results (with per-rank jitter applied
// at registration) instead of paying 10k simulator runs at startup.
func fleetProfiles() ([]sim.Result, error) {
	m := machine.IvyBridge()
	graphs := []*sim.Graph{
		fanGraph("balanced", 256, 40_000),
		fanGraph("fine", 1024, 4_000),
		fanGraph("coarse", 64, 400_000),
	}
	out := make([]sim.Result, 0, len(graphs))
	for _, g := range graphs {
		res, err := sim.Run(sim.Config{Machine: m, Cores: 16, Mode: sim.HPX}, g)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// fanGraph builds a flat fork/join of n leaves of the given grain.
func fanGraph(label string, n int, grainNs int64) *sim.Graph {
	root := &sim.Node{PreNs: grainNs}
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, sim.Leaf(grainNs, grainNs/4))
	}
	return &sim.Graph{Label: label, Root: root}
}

// registerFleetLocality registers one locality's counters: the profile's
// values with deterministic per-rank jitter, under the standard
// /threads and /runtime names, plus a histogram-backed task-duration
// distribution so fleet-wide quantiles exercise the digest's histogram
// path.
func registerFleetLocality(reg *core.Registry, loc int64, p sim.Result, rank int) error {
	// jitter in [0.9, 1.1), deterministic in rank.
	j := 0.9 + float64((rank*2654435761)%1000)/5000.0
	scale := func(v int64) int64 { return int64(float64(v) * j) }

	specs := []struct {
		object, counter, help, unit string
		value                       int64
	}{
		{"threads", "count/cumulative", "tasks executed (simulated)", core.UnitEvents, scale(p.Tasks)},
		{"threads", "time/cumulative", "cumulative task time (simulated)", core.UnitNanoseconds, scale(p.TaskTimeNs)},
		{"threads", "idle-rate", "idle rate (simulated, 0.01%)", "0.01%", scale(int64(float64(p.IdleNs) / (float64(p.Cores) * float64(p.MakespanNs)) * 10000))},
		{"runtime", "uptime", "makespan (simulated)", core.UnitNanoseconds, scale(p.MakespanNs)},
	}
	for _, s := range specs {
		if err := reg.Register(core.NewLocalityFunc(s.object, s.counter, loc, s.help, s.unit,
			func() int64 { return s.value }, nil)); err != nil {
			return err
		}
	}

	// A histogram-backed task-duration distribution on a slice of the
	// fleet (full bucket tables are ~8KB a piece — every 8th locality
	// keeps a 10k fleet cheap while still exercising the digest's
	// histogram merge up the tree; the others are lenient-bind gaps).
	if rank%8 == 0 {
		hc := core.NewHistogramCounter(core.LocalityName("threads", "time/task-duration", loc, -1),
			core.TypeInfo("threads", "time/task-duration", "per-task duration distribution (simulated)", core.UnitNanoseconds))
		avg := scale(p.TaskTimeNs / p.Tasks)
		if avg <= 0 {
			avg = 1
		}
		for i := 0; i < 32; i++ {
			hc.Record(avg * int64(i%7+1) / 4)
		}
		if err := reg.Register(hc); err != nil {
			return err
		}
	}
	return nil
}

// KillRank marks a rank dead and closes its loopback server if one
// exists, so both in-process and wire children see it vanish.
func (f *Fleet) KillRank(r int) {
	f.Nodes[r].Kill()
	if srv, ok := f.servers[r]; ok {
		srv.Close()
		delete(f.servers, r)
	}
}

// TopologyChild is one attached subtree in a topology dump, with its
// freshness at dump time.
type TopologyChild struct {
	Rank       int   `json:"rank"`
	Localities int   `json:"localities"`
	Depth      int   `json:"depth"`
	Gen        int64 `json:"gen"`
	AgeNs      int64 `json:"age_ns"`
	Stale      bool  `json:"stale"`
	Partial    bool  `json:"partial"`
}

// TopologyNode is one overlay rank in a topology dump.
type TopologyNode struct {
	Rank      int             `json:"rank"`
	Locality  int64           `json:"locality"`
	Depth     int             `json:"depth"`
	Parent    int             `json:"parent"`
	Kind      string          `json:"kind"` // root | node | dead
	Reparents int64           `json:"reparents,omitempty"`
	Children  []TopologyChild `json:"children,omitempty"`
}

// Topology is the overlay shape at one instant: the deterministic k-ary
// layout plus whatever repairs have moved links off it.
type Topology struct {
	Localities int            `json:"localities"`
	Fanout     int            `json:"fanout"`
	MaxDepth   int            `json:"max_depth"`
	Dead       int            `json:"dead"`
	Nodes      []TopologyNode `json:"nodes"`
}

// Topology captures the overlay shape — rank, locality, depth, parent,
// attached children and per-subtree freshness. maxDepth limits how far
// below the root nodes are included (< 0 = the whole overlay); on a 10k
// fleet the top few levels are what an operator can actually read.
func (f *Fleet) Topology(now time.Time, maxDepth int) Topology {
	top := Topology{
		Localities: len(f.Nodes),
		Fanout:     f.cfg.Fanout,
		MaxDepth:   Depth(len(f.Nodes)-1, f.cfg.Fanout),
	}
	for _, n := range f.Nodes {
		n.mu.Lock()
		depth := Depth(n.rank, n.cfg.Fanout)
		if n.dead {
			top.Dead++
		}
		if maxDepth >= 0 && depth > maxDepth {
			n.mu.Unlock()
			continue
		}
		kind := "node"
		if n.rank == 0 {
			kind = "root"
		} else if n.dead {
			kind = "dead"
		}
		tn := TopologyNode{
			Rank: n.rank, Locality: n.loc, Depth: depth,
			Parent: n.parent, Kind: kind, Reparents: n.reparents,
		}
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
			age := now.Sub(cs.recv)
			tn.Children = append(tn.Children, TopologyChild{
				Rank: r, Localities: cs.last.Localities, Depth: cs.last.Depth,
				Gen: cs.last.Gen, AgeNs: age.Nanoseconds(),
				Stale: age > n.cfg.staleAfter(), Partial: cs.last.Partial,
			})
		}
		n.mu.Unlock()
		top.Nodes = append(top.Nodes, tn)
	}
	return top
}

// PrintTopology writes the overlay shape in human-readable form, for
// counterls -tree and debugging.
func (f *Fleet) PrintTopology(w io.Writer, now time.Time) {
	top := f.Topology(now, -1)
	fmt.Fprintf(w, "overlay: %d localities, fanout %d, depth %d, %d dead\n",
		top.Localities, top.Fanout, top.MaxDepth, top.Dead)
	for _, n := range top.Nodes {
		fmt.Fprintf(w, "rank %-5d locality#%-5d depth %d parent %-5d %-4s children %d\n",
			n.Rank, n.Locality, n.Depth, n.Parent, n.Kind, len(n.Children))
		for _, c := range n.Children {
			state := "fresh"
			if c.Stale {
				state = "stale"
			}
			fmt.Fprintf(w, "  child rank %-5d localities %-5d depth %d gen %-6d age %-10v %s partial %v\n",
				c.Rank, c.Localities, c.Depth, c.Gen,
				time.Duration(c.AgeNs).Round(time.Millisecond), state, c.Partial)
		}
	}
}
