package sim

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/machine"
)

// Mode selects the scheduler model.
type Mode int

const (
	// HPX models the lightweight task runtime: per-core scheduling with
	// at most one running task per core, waiting parents release their
	// core (help-first), per-task overhead from the machine's HPX cost
	// model.
	HPX Mode = iota
	// Std models GCC std::async: one thread per task created at spawn,
	// all live threads share the cores (kernel processor sharing),
	// waiting parents keep their thread alive, creation cost paid by the
	// spawner, failure at the machine's thread ceiling.
	Std
)

// String names the mode as the paper labels its series.
func (m Mode) String() string {
	if m == Std {
		return "C++11 Std"
	}
	return "HPX"
}

// Config parameterises one simulation run.
type Config struct {
	// Machine is the platform model.
	Machine machine.Machine
	// Cores is the number of cores used (strong-scaling x axis).
	Cores int
	// Mode selects the runtime model.
	Mode Mode
}

// Result carries the metrics of one run, matching the performance
// counters the paper reports.
type Result struct {
	// Label echoes the graph label.
	Label string
	// Mode and Cores echo the configuration.
	Mode  Mode
	Cores int

	// MakespanNs is the wall-clock execution time (virtual).
	MakespanNs int64
	// Tasks is the number of tasks executed.
	Tasks int64
	// TaskTimeNs is cumulative task execution time including contention
	// stretching — the /threads/time/cumulative counter.
	TaskTimeNs int64
	// PureWorkNs is cumulative task work at zero contention.
	PureWorkNs int64
	// OverheadNs is cumulative scheduling overhead — the
	// /threads/time/cumulative-overhead counter.
	OverheadNs int64
	// BusyNs is core-time spent executing (task time + overhead).
	BusyNs int64
	// IdleNs is core-time spent without work: Cores*Makespan - Busy.
	IdleNs int64
	// OffcoreBytes is total off-core traffic, counted in lines of
	// LineBytes by the /papi OFFCORE_REQUESTS counters.
	OffcoreBytes int64
	// LineBytes is the platform's cache-line size.
	LineBytes int64
	// PeakLive is the high-water mark of live threads (std mode) or
	// running+queued tasks (HPX mode).
	PeakLive int64
	// ThreadsLaunched counts thread creations (std mode).
	ThreadsLaunched int64
	// Failed reports resource exhaustion (std mode fine-grained runs).
	Failed bool
	// FailureReason describes the failure.
	FailureReason string
}

// ---------------------------------------------------------------------------
// Internal simulation structures.

type nodeState struct {
	n       *Node
	parent  *nodeState
	pending int // children not yet fully complete
	nextSer int // next child to spawn when n.Serial
}

type phase struct {
	state      *nodeState
	post       bool
	workNs     float64 // contention-free compute
	overhead   float64 // scheduling overhead portion
	contention float64 // execution-time inflation from concurrent scheduling
	bytes      float64
	vStart     float64 // virtual time when started
	vTarget    float64 // virtual completion
	tStart     float64 // real time when started
	heapIx     int
}

func (p *phase) intensity() float64 {
	d := p.workNs + p.overhead + p.contention
	if d <= 0 {
		return 0
	}
	return p.bytes / d // bytes per virtual nanosecond
}

type phaseHeap []*phase

func (h phaseHeap) Len() int           { return len(h) }
func (h phaseHeap) Less(i, j int) bool { return h[i].vTarget < h[j].vTarget }
func (h phaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIx = i; h[j].heapIx = j }
func (h *phaseHeap) Push(x any)        { p := x.(*phase); p.heapIx = len(*h); *h = append(*h, p) }
func (h *phaseHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
func (h phaseHeap) peek() *phase { return h[0] }

type simulator struct {
	cfg Config
	res Result

	v       float64 // virtual progress per running phase
	t       float64 // real time, ns
	running phaseHeap
	ready   []*phase // HPX mode: tasks waiting for a core (LIFO)
	live    int64    // std mode: live threads (running + waiting parents)

	sumIntensity float64 // Σ intensity over running phases
}

// Run executes the graph under the configuration and returns the metrics.
func Run(cfg Config, g *Graph) (Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Cores <= 0 || cfg.Cores > cfg.Machine.TotalCores() {
		return Result{}, fmt.Errorf("sim: %d cores outside platform range 1..%d",
			cfg.Cores, cfg.Machine.TotalCores())
	}
	if g == nil || g.Root == nil {
		return Result{}, fmt.Errorf("sim: empty graph")
	}
	s := &simulator{cfg: cfg}
	s.res.Label = g.Label
	s.res.Mode = cfg.Mode
	s.res.Cores = cfg.Cores
	s.res.LineBytes = cfg.Machine.CacheLineBytes

	root := &nodeState{n: g.Root}
	s.spawn(root)
	s.loop()

	s.res.MakespanNs = int64(math.Round(s.t))
	total := float64(cfg.Cores) * s.t
	idle := total - float64(s.res.BusyNs)
	if idle < 0 {
		idle = 0
	}
	s.res.IdleNs = int64(idle)
	return s.res, nil
}

// spawn makes a node's pre phase runnable (queued under HPX, immediately
// running under std) and accounts thread creation for the std model.
// It reports false when the std model failed at the thread ceiling.
func (s *simulator) spawn(st *nodeState) bool {
	ph := &phase{
		state:  st,
		workNs: float64(st.n.PreNs),
		bytes:  float64(st.n.PreBytes),
	}
	if len(st.n.Children) == 0 {
		// A childless node has no join point: its post work is simply
		// the tail of the same task.
		ph.workNs += float64(st.n.PostNs)
		ph.bytes += float64(st.n.PostBytes)
	}
	switch s.cfg.Mode {
	case HPX:
		ph.overhead = s.cfg.Machine.HPXOverheadNs(s.cfg.Cores)
		ph.contention = s.cfg.Machine.HPXContentionNs(s.cfg.Cores)
		s.ready = append(s.ready, ph)
		s.notePeak(int64(len(s.ready)) + int64(len(s.running)))
	case Std:
		s.live++
		s.res.ThreadsLaunched++
		s.notePeak(s.live)
		if ceiling := s.cfg.Machine.StdThreadCeiling; ceiling > 0 && s.live > ceiling {
			s.res.Failed = true
			s.res.FailureReason = fmt.Sprintf(
				"resource exhaustion: %d live threads exceed the %d-thread ceiling (%d MiB stacks)",
				s.live, ceiling, s.cfg.Machine.StdStackBytes>>20)
			return false
		}
		// pthread_create runs in the spawning thread: this node's pre
		// phase pays for creating its children, serialising thread
		// creation in the parent exactly as the baseline does.
		ph.overhead = s.cfg.Machine.StdCreateNs(s.live) * float64(len(st.n.Children))
		s.start(ph)
	}
	return true
}

func (s *simulator) notePeak(v int64) {
	if v > s.res.PeakLive {
		s.res.PeakLive = v
	}
}

// start begins executing a phase at the current virtual time.
func (s *simulator) start(ph *phase) {
	ph.vStart = s.v
	ph.vTarget = s.v + ph.workNs + ph.overhead + ph.contention
	ph.tStart = s.t
	heap.Push(&s.running, ph)
	s.sumIntensity += ph.intensity()
}

// startPost schedules a node's post (merge) phase after its children
// completed.
func (s *simulator) startPost(st *nodeState) {
	ph := &phase{
		state:  st,
		post:   true,
		workNs: float64(st.n.PostNs),
		bytes:  float64(st.n.PostBytes),
	}
	switch s.cfg.Mode {
	case HPX:
		// The continuation costs another scheduling round trip.
		ph.overhead = s.cfg.Machine.HPXOverheadNs(s.cfg.Cores) / 2
		ph.contention = s.cfg.Machine.HPXContentionNs(s.cfg.Cores)
		s.ready = append(s.ready, ph)
	case Std:
		// The parent's thread resumes directly; no new thread.
		s.start(ph)
	}
}

// rate returns the current per-phase progress rate (virtual ns per real
// ns) and the count of phases actually consuming a core.
func (s *simulator) rate() (float64, int) {
	m := len(s.running)
	if m == 0 {
		return 1, 0
	}
	cores := float64(s.cfg.Cores)
	base := 1.0
	occupied := m
	if float64(m) > cores {
		base = cores / float64(m) // kernel processor sharing (std mode)
		occupied = s.cfg.Cores
	}

	// Memory bandwidth saturation: instantaneous demand at the current
	// base rate against the capacity of the sockets in use.
	demand := s.sumIntensity * base * 1e9 // bytes/s
	capacity := s.cfg.Machine.BandwidthCapacity(s.cfg.Cores)
	stretch := 1.0
	if demand > capacity && capacity > 0 {
		stretch = demand / capacity
	}
	// Socket-boundary penalty on memory-bound work.
	if s.cfg.Machine.SpansSockets(s.cfg.Cores) && capacity > 0 {
		share := demand / capacity
		if share > 1 {
			share = 1
		}
		stretch *= 1 + s.cfg.Machine.CrossSocketPenalty*share
	}
	// Oversubscription cost (std mode): context switching and cache
	// pollution grow with log2 of the oversubscription factor.
	if float64(m) > cores && s.cfg.Machine.StdOversubscription > 0 {
		stretch *= 1 + s.cfg.Machine.StdOversubscription*math.Log2(float64(m)/cores)
	}
	return base / stretch, occupied
}

// loop is the main event loop: fill cores, advance to the next
// completion, process it.
func (s *simulator) loop() {
	for {
		if s.res.Failed {
			return
		}
		// HPX: assign ready tasks to free cores, newest first (LIFO, as
		// the local-priority scheduler prefers fresh children).
		if s.cfg.Mode == HPX {
			for len(s.running) < s.cfg.Cores && len(s.ready) > 0 {
				ph := s.ready[len(s.ready)-1]
				s.ready = s.ready[:len(s.ready)-1]
				s.start(ph)
			}
		}
		if len(s.running) == 0 {
			return // quiescent: all work done (ready must be empty too)
		}
		rate, occupied := s.rate()
		next := s.running.peek()
		dv := next.vTarget - s.v
		if dv < 0 {
			dv = 0
		}
		dt := dv / rate
		s.t += dt
		s.v = next.vTarget
		s.res.BusyNs += int64(float64(occupied) * dt)

		heap.Pop(&s.running)
		s.sumIntensity -= next.intensity()
		if s.sumIntensity < 0 {
			s.sumIntensity = 0
		}
		s.complete(next)
	}
}

// complete processes a finished phase: accounting, spawning children or
// releasing the parent.
func (s *simulator) complete(ph *phase) {
	// Attribute the real execution duration to task time vs overhead in
	// proportion to the virtual split.
	dur := s.t - ph.tStart
	virt := ph.workNs + ph.overhead + ph.contention
	if virt > 0 {
		// Contention inflates the observed task duration (the paper's
		// /threads/time/average growth); overhead stays separate.
		s.res.TaskTimeNs += int64(dur * (ph.workNs + ph.contention) / virt)
		s.res.OverheadNs += int64(dur * ph.overhead / virt)
	}
	s.res.PureWorkNs += int64(ph.workNs)
	s.res.OffcoreBytes += int64(ph.bytes)

	st := ph.state
	if !ph.post {
		s.res.Tasks++
		if n := len(st.n.Children); n > 0 {
			st.pending = n
			if st.n.Serial {
				st.nextSer = 1
				s.spawn(&nodeState{n: st.n.Children[0], parent: st})
			} else {
				for _, c := range st.n.Children {
					if !s.spawn(&nodeState{n: c, parent: st}) {
						return
					}
				}
			}
			return // parent waits for children
		}
	}
	// The node is fully complete (leaf pre phase, or post phase done).
	s.finish(st)
}

// finish propagates completion to the parent chain.
func (s *simulator) finish(st *nodeState) {
	if s.cfg.Mode == Std {
		s.live--
	}
	p := st.parent
	if p == nil {
		return
	}
	p.pending--
	if p.n.Serial && p.nextSer < len(p.n.Children) {
		c := p.n.Children[p.nextSer]
		p.nextSer++
		s.spawn(&nodeState{n: c, parent: p})
		return
	}
	if p.pending == 0 {
		// The parent stayed live (std) while waiting; its thread simply
		// resumes with the post phase.
		s.startPost(p)
	}
}
