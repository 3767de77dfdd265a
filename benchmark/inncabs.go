package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/inncabs"
	"repro/internal/stdrt"
	"repro/internal/taskrt"
)

// kernelSpec is one Inncabs kernel at the size a workload runs it.
type kernelSpec struct {
	name string
	size inncabs.Size
}

// coarseKernels have 28 us-10 ms task bodies. alignment, sort and round
// run at Medium, not Paper: at Paper they alone take 6.7 s a round
// (workers 1, nproc and nproc monitored), which leaves a 20 s run two
// samples a kernel; the preset changes the task count, not the grain.
var coarseKernels = []kernelSpec{
	{"alignment", inncabs.Medium}, {"sparselu", inncabs.Paper}, {"sort", inncabs.Medium},
	{"strassen", inncabs.Paper}, {"pyramids", inncabs.Paper}, {"nqueens", inncabs.Paper},
	{"round", inncabs.Medium},
}

// fineKernels have 1-5 us task bodies. floorplan's Paper preset runs
// 38 s, so it runs at Small.
var fineKernels = []kernelSpec{
	{"fib", inncabs.Paper}, {"uts", inncabs.Paper}, {"health", inncabs.Paper},
	{"fft", inncabs.Paper}, {"qap", inncabs.Paper}, {"intersim", inncabs.Paper},
	{"floorplan", inncabs.Small},
}

// kernelMode is how one kernel execution is instrumented.
type kernelMode int

const (
	modeSerial    kernelMode = iota // workers = 1
	modeParallel                    // workers = nproc
	modeMonitored                   // workers = nproc, monitor sweeping and scraped
	modeTraced                      // workers = nproc, spans around every Async and Get
)

func (m kernelMode) String() string {
	return [...]string{"serial", "parallel", "monitored", "traced"}[m]
}

// kernel is a kernelSpec resolved at set-up.
type kernel struct {
	kernelSpec
	b   *inncabs.Benchmark
	ref int64
}

// kernelRun is what one verified execution yields: wall time and the
// runtime's own counters for it (a fresh runtime per execution, so the
// counters are that execution's totals).
type kernelRun struct {
	wall                              float64 // seconds
	tasks, steals                     float64
	taskNs, overheadNs, idleNs, allNs float64 // allNs = workers x wall
}

type inncabsWorkload struct {
	kernels []kernelSpec
	fine    bool
	ks      []kernel

	// The sample-to-scrape probe: an idle runtime of nproc workers, its
	// /threads counters and the monitor over them, loops stopped.
	probeRT  *taskrt.Runtime
	probeReg *core.Registry
	probeSet *core.BindSet
	probe    *monitor
}

func (w *inncabsWorkload) setup(r *run) error {
	w.ks = w.ks[:0]
	for _, s := range w.kernels {
		b, err := inncabs.ByName(s.name)
		if err != nil {
			return err
		}
		if r.cfg.Quick {
			s.size = inncabs.Test
		}
		// The sequential reference is the expensive part of set-up.
		w.ks = append(w.ks, kernel{kernelSpec: s, b: b, ref: b.RefChecksum(s.size)})
	}
	w.probeRT = taskrt.New(taskrt.WithWorkers(runtime.NumCPU()))
	w.probeReg = core.NewRegistry()
	if err := w.probeRT.RegisterCounters(w.probeReg); err != nil {
		return err
	}
	var err error
	w.probe, w.probeSet, err = newThreadsMonitor(w.probeReg)
	return err
}

func (w *inncabsWorkload) teardown() {
	if w.probe != nil {
		w.probe.close()
		w.probe = nil
	}
	if w.probeRT != nil {
		w.probeRT.Shutdown()
		w.probeRT = nil
	}
}

var threadCounters = []string{
	"/threads{locality#0/total}/count/cumulative",
	"/threads{locality#0/total}/count/stolen",
	"/threads{locality#0/total}/time/cumulative",
	"/threads{locality#0/total}/time/cumulative-overhead",
	"/threads{locality#0/total}/time/idle",
}

// runKernel executes k once on a fresh taskrt runtime and verifies its
// checksum. Only b.Run is inside the timed region.
func (w *inncabsWorkload) runKernel(r *run, k *kernel, mode kernelMode) (kernelRun, error) {
	workers := runtime.NumCPU()
	if mode == modeSerial {
		workers = 1
	}
	rt := taskrt.New(taskrt.WithWorkers(workers))
	defer rt.Shutdown()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		return kernelRun{}, err
	}
	set, err := reg.BindSet(threadCounters)
	if err != nil {
		return kernelRun{}, err
	}
	var adapter inncabs.Runtime = inncabs.NewHPX(rt)
	var kernelSpan *layerStat
	switch mode {
	case modeMonitored:
		m, _, err := newThreadsMonitor(reg)
		if err != nil {
			return kernelRun{}, err
		}
		defer m.close()
		m.startLoops()
		defer m.accountLoops(r)
	case modeTraced:
		kernelSpan = r.tr.layer("inncabs.kernel")
		adapter = newTracedRuntime(inncabs.NewHPX(rt), r.tr)
	}
	r.attempted.Add(1)
	t0 := time.Now()
	sum := k.b.Run(adapter, k.size)
	t1 := time.Now()
	if kernelSpan != nil {
		kernelSpan.observe(t0, t1, 0, 0, 1)
	}
	if sum != k.ref {
		r.fail("%s %s: checksum %d, want %d", k.name, mode, sum, k.ref)
	}
	v := set.EvaluateBatch(nil, false)
	wall := t1.Sub(t0)
	return kernelRun{
		wall: wall.Seconds(), tasks: float64(v[0].Raw), steals: float64(v[1].Raw),
		taskNs: float64(v[2].Raw), overheadNs: float64(v[3].Raw), idleNs: float64(v[4].Raw),
		allNs: float64(workers) * float64(wall.Nanoseconds()),
	}, nil
}

// measure runs rounds of every kernel in every mode until the time is
// used. Kernel order and mode order are shuffled from the seed each
// round, so no kernel always follows the same neighbour's heap.
func (w *inncabsWorkload) measure(r *run) error {
	modes := []kernelMode{modeSerial, modeParallel, modeMonitored}
	if r.cfg.Trace {
		// A traced run spends the monitored pass on the tracing adapter;
		// its untraced parallel pass is the reference for trace overhead.
		modes[2] = modeTraced
	}
	runs := make(map[string]map[kernelMode][]kernelRun)
	for _, k := range w.ks {
		runs[k.name] = make(map[kernelMode][]kernelRun)
	}
	// Leave room for the ledger and, on a traced fine run, stdrt.
	deadline := time.Now().Add(r.budget(0.95))
	var roundTook time.Duration
	var scrapeUs []float64
	for round := 0; round < 2 || time.Now().Add(roundTook).Before(deadline); round++ {
		begin := time.Now()
		for _, ki := range r.rng.Perm(len(w.ks)) {
			k := &w.ks[ki]
			for _, mi := range r.rng.Perm(len(modes)) {
				r.op("round %d %s %s", round, k.name, modes[mi])
				kr, err := w.runKernel(r, k, modes[mi])
				if err != nil {
					return fmt.Errorf("%s: %w", k.name, err)
				}
				runs[k.name][modes[mi]] = append(runs[k.name][modes[mi]], kr)
				// A few probes after every execution, so that they cover
				// the whole run.
				scrapeUs = append(scrapeUs, w.probe.sampleToScrape(r, 10)...)
			}
		}
		roundTook = time.Since(begin)
		if r.cfg.Quick {
			break
		}
	}

	// Sum over kernels, per mode, of each kernel's fastest round (at
	// workers = 1 its median round; see README, Noise).
	var solve, serial, observed, tasks float64
	var serialSpreads []float64
	var par kernelRun // counters summed over every parallel execution
	for _, k := range w.ks {
		walls := func(m kernelMode) []float64 {
			var xs []float64
			for _, kr := range runs[k.name][m] {
				xs = append(xs, kr.wall)
			}
			return xs
		}
		solve += fastLow(walls(modeParallel))
		serial += median(walls(modeSerial))
		observed += fastLow(walls(modes[2]))
		serialSpreads = append(serialSpreads, spread(walls(modeSerial)))
		var kt []float64
		for _, kr := range runs[k.name][modeParallel] {
			kt = append(kt, kr.tasks)
			par.tasks += kr.tasks
			par.steals += kr.steals
			par.taskNs += kr.taskNs
			par.overheadNs += kr.overheadNs
			par.idleNs += kr.idleNs
			par.allNs += kr.allNs
		}
		tasks += median(kt)
		if r.cfg.Trace {
			r.metrics.setFast("inncabs."+k.name+".solve_s", walls(modeParallel), 1)
			r.metrics.setMedian("inncabs."+k.name+".serial_s", walls(modeSerial), 1)
			r.metrics.set("inncabs."+k.name+".tasks", median(kt))
		}
	}
	r.serialSpread = serialSpreads
	rounds := len(runs[w.ks[0].name][modeParallel])
	m := r.metrics
	m.set("solve_s", solve)
	m.set("serial_solve_s", serial)
	m.set("tasks_per_s", tasks/solve)
	for _, name := range []string{"solve_s", "serial_solve_s", "tasks_per_s"} {
		m[name].N = rounds
	}

	if !r.cfg.Trace {
		m.set("monitored_tasks_per_s", tasks/observed)
		m["monitored_tasks_per_s"].N = rounds
		m.setFast("sample_to_scrape_us", scrapeUs, 1)
		return nil
	}
	monitorLedger(r, w.probe, w.probeSet, w.probeReg)

	m.set("trace_overhead_pct", (observed-solve)/solve*100)
	m.set("taskrt.tasks_executed", par.tasks)
	r.tasks = par.tasks * float64(len(modes)) // every mode ran the same kernels
	m.set("taskrt.steals", par.steals)
	m.set("taskrt.avg_task_us", par.taskNs/par.tasks/1e3)
	m.set("taskrt.avg_overhead_us", par.overheadNs/par.tasks/1e3)
	m.set("taskrt.overhead_share_pct", par.overheadNs/(par.taskNs+par.overheadNs)*100)
	m.set("taskrt.idle_rate_pct", par.idleNs/par.allNs*100)
	m.set("taskrt.scaling_eff", serial/(float64(runtime.NumCPU())*solve))
	async, get := r.tr.layer("taskrt.async"), r.tr.layer("taskrt.get")
	m.set("taskrt.async_calls", float64(async.units.Load()))
	m.set("taskrt.async_ns", async.meanNs())
	m.set("taskrt.get_ns", get.meanNs())
	if w.fine {
		w.stdrtComparison(r)
	}
	return nil
}

// stdrtComparison is the paper's HPX-vs-std column: the fine kernels
// once on the goroutine-per-task baseline and once on taskrt, both at
// Medium (stdrt at Paper size holds a goroutine per live call).
func (w *inncabsWorkload) stdrtComparison(r *run) {
	size := inncabs.Medium
	if r.cfg.Quick {
		size = inncabs.Test
	}
	var std, hpx float64
	for _, k := range w.ks {
		size := size
		if k.name == "floorplan" && !r.cfg.Quick {
			size = inncabs.Small
		}
		ref := k.b.RefChecksum(size)
		timed := func(rt inncabs.Runtime, label string) float64 {
			r.attempted.Add(1)
			t0 := time.Now()
			sum := k.b.Run(rt, size)
			d := time.Since(t0).Seconds()
			if sum != ref {
				r.fail("%s on %s: checksum %d, want %d", k.name, label, sum, ref)
			}
			return d
		}
		std += timed(inncabs.NewStd(stdrt.New()), "stdrt")
		rt := taskrt.New(taskrt.WithWorkers(runtime.NumCPU()))
		hpx += timed(inncabs.NewHPX(rt), "taskrt")
		rt.Shutdown()
	}
	r.metrics.set("stdrt.solve_s", std)
	r.metrics.set("taskrt.vs_stdrt_ratio", hpx/std)
}

// tracedRuntime wraps the taskrt adapter so that every call into taskrt
// a kernel makes is a span: Async and AsyncBatch (time to hand children
// to the scheduler) and Get (time the parent waits or helps).
type tracedRuntime struct {
	inner      *inncabs.HPXRuntime
	async, get *layerStat
}

func newTracedRuntime(inner *inncabs.HPXRuntime, t *tracer) *tracedRuntime {
	return &tracedRuntime{inner: inner, async: t.layer("taskrt.async"), get: t.layer("taskrt.get")}
}

func (t *tracedRuntime) Async(fn func() any) inncabs.Future {
	t0 := time.Now()
	f := t.inner.Async(fn)
	t.async.observe(t0, time.Now(), 0, 0, 1)
	return tracedFuture{f, t.get}
}

func (t *tracedRuntime) AsyncBatch(grainNs int64, fns []func() any) []inncabs.Future {
	t0 := time.Now()
	fs := t.inner.AsyncBatch(grainNs, fns)
	t.async.observe(t0, time.Now(), 0, 0, int64(len(fns)))
	for i, f := range fs {
		fs[i] = tracedFuture{f, t.get}
	}
	return fs
}

func (t *tracedRuntime) NewMutex() sync.Locker { return t.inner.NewMutex() }
func (t *tracedRuntime) Name() string          { return t.inner.Name() }

type tracedFuture struct {
	inner inncabs.Future
	get   *layerStat
}

func (f tracedFuture) Get() any {
	t0 := time.Now()
	v := f.inner.Get()
	f.get.observe(t0, time.Now(), 0, 0, 1)
	return v
}
