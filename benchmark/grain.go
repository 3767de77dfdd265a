package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/taskrt"
)

// wave is the fan-out per join, as in the Inncabs loops.
const wave = 256

// waveSet is wave task bodies of one grain: fns[i] spins iters rounds
// from its own input, and want is the sum a correct wave returns.
type waveSet struct {
	fns   []func() uint64
	iters int
	want  uint64
}

func newWaveSet(iters int, base uint64) *waveSet {
	ws := &waveSet{fns: make([]func() uint64, wave), iters: iters}
	for i := range ws.fns {
		x := base + uint64(i) + 1
		ws.fns[i] = func() uint64 { return spin(x, iters) }
		ws.want += spin(x, iters)
	}
	return ws
}

// serial runs waves waves of bodies with no runtime under them: the
// single-thread reference the efficiency is a ratio to.
func (ws *waveSet) serial(waves int) (time.Duration, bool) {
	ok := true
	t0 := time.Now()
	for w := 0; w < waves; w++ {
		var sum uint64
		for _, fn := range ws.fns {
			sum += fn()
		}
		ok = ok && sum == ws.want
	}
	return time.Since(t0), ok
}

// reference runs waves waves of bodies on threads plain goroutines: what
// the same work costs on this host with perfect balance and no runtime,
// the numerator of efficiency at that many workers. waves is a multiple
// of threads.
func (ws *waveSet) reference(waves, threads int) (time.Duration, bool) {
	if threads == 1 {
		return ws.serial(waves)
	}
	oks := make([]bool, threads)
	var wg sync.WaitGroup
	t0 := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			_, oks[t] = ws.serial(waves / threads)
		}(t)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, ok := range oks {
		if !ok {
			return d, false
		}
	}
	return d, true
}

// waveTimes is the wall time waves took on a runtime, split by the call
// into taskrt it was spent in, and how many waves returned a wrong sum.
type waveTimes struct {
	total, submit, wait, release time.Duration
	bad                          int
}

// onRuntime runs waves from inside a root task of rt, so the submitter
// is a worker (its pushes go to its own deque and its wait helps) and
// workers = 1 really is one thread. grainNs > 0 passes the grain hint.
// split additionally times each of the three calls.
func (ws *waveSet) onRuntime(rt *taskrt.Runtime, waves int, grainNs int64, split bool) waveTimes {
	root := taskrt.Spawn(rt, taskrt.Async, func() waveTimes {
		var wt waveTimes
		begin := time.Now()
		for w := 0; w < waves; w++ {
			var t0, t1, t2 time.Time
			if split {
				t0 = time.Now()
			}
			var fs []*taskrt.Future[uint64]
			if grainNs > 0 {
				fs = taskrt.AsyncBatchGrain(rt, grainNs, ws.fns)
			} else {
				fs = taskrt.AsyncBatch(rt, ws.fns)
			}
			if split {
				t1 = time.Now()
			}
			taskrt.WaitAllOf(fs)
			var sum uint64
			for _, f := range fs {
				sum += f.Get()
			}
			if split {
				t2 = time.Now()
			}
			taskrt.ReleaseAll(fs)
			if split {
				wt.submit += t1.Sub(t0)
				wt.wait += t2.Sub(t1)
				wt.release += time.Since(t2)
			}
			if sum != ws.want {
				wt.bad++
			}
		}
		wt.total = time.Since(begin)
		return wt
	})
	wt := root.Get()
	root.Release()
	return wt
}

// forkJoin is the recursive binary fork-join over single Spawn / Get /
// Release: 2^depth leaves of one body each.
func forkJoin(rt *taskrt.Runtime, depth, iters int, x uint64) uint64 {
	if depth == 0 {
		return spin(x, iters)
	}
	left := taskrt.Spawn(rt, taskrt.Async, func() uint64 { return forkJoin(rt, depth-1, iters, 2*x) })
	right := forkJoin(rt, depth-1, iters, 2*x+1)
	l := left.Get()
	left.Release()
	return l + right
}

// forkJoinSerial is the same tree with no runtime, for the expected sum.
func forkJoinSerial(depth, iters int, x uint64) uint64 {
	if depth == 0 {
		return spin(x, iters)
	}
	return forkJoinSerial(depth-1, iters, 2*x) + forkJoinSerial(depth-1, iters, 2*x+1)
}

// metg is the minimum effective task granularity: the smallest grain at
// which efficiency reaches 50 %, interpolated linearly in log(grain)
// between the two measured grains that bracket it. grains ascend. When
// every point is at least 50 % efficient the smallest grain is returned,
// when none is the largest: the sweep then does not bracket METG.
func metg(grains, eff []float64) float64 {
	const target = 0.5
	for i := range grains {
		if eff[i] < target {
			continue
		}
		// The first efficient grain whose predecessor is not.
		if i == 0 {
			return grains[0]
		}
		if eff[i-1] >= target {
			continue
		}
		f := (target - eff[i-1]) / (eff[i] - eff[i-1])
		return math.Exp(math.Log(grains[i-1]) + f*(math.Log(grains[i])-math.Log(grains[i-1])))
	}
	return grains[len(grains)-1]
}

type grainWorkload struct {
	itersPerNs float64
	sets       []*waveSet // one per sweepGrainsUs
	oneUs      *waveSet
	rt1, rtN   *taskrt.Runtime
	regN       *core.Registry
	mon        *monitor
	monSet     *core.BindSet
	nproc      int

	fjDepth        int
	fjRoot, fjWant uint64 // the fork-join tree's root input and its expected sum
}

func (w *grainWorkload) setup(r *run) error {
	w.nproc = runtime.NumCPU()
	w.itersPerNs = r.host.CalibStart
	base := r.rng.Uint64() >> 8
	w.sets = w.sets[:0]
	for _, g := range sweepGrainsUs {
		ws := newWaveSet(w.iters(g), base)
		w.sets = append(w.sets, ws)
		if g == 1 {
			w.oneUs = ws
		}
	}
	w.fjDepth = 15
	if r.cfg.Quick {
		w.fjDepth = 10
	}
	w.fjRoot = base | 1
	w.fjWant = forkJoinSerial(w.fjDepth, w.oneUs.iters, w.fjRoot)
	w.rt1 = taskrt.New(taskrt.WithWorkers(1))
	w.rtN = taskrt.New(taskrt.WithWorkers(w.nproc))
	w.regN = core.NewRegistry()
	if err := w.rtN.RegisterCounters(w.regN); err != nil {
		return err
	}
	var err error
	w.mon, w.monSet, err = newThreadsMonitor(w.regN)
	return err
}

func (w *grainWorkload) teardown() {
	if w.mon != nil {
		w.mon.close()
		w.mon = nil
	}
	for _, rt := range []*taskrt.Runtime{w.rt1, w.rtN} {
		if rt != nil {
			rt.Shutdown()
		}
	}
	w.rt1, w.rtN = nil, nil
}

func (w *grainWorkload) iters(grainUs float64) int {
	return max(1, int(math.Round(grainUs*1000*w.itersPerNs)))
}

// sweepAcc accumulates the slices of an efficiency sweep, per grain.
type sweepAcc struct {
	workers  int
	ratio    []sample // reference slice / runtime slice, paired
	serialNs []sample // reference time per task per thread
	runtimeS []sample // runtime slice wall, seconds
	passes   int
}

func newSweepAcc(workers int) *sweepAcc {
	n := len(sweepGrainsUs)
	return &sweepAcc{workers: workers, ratio: make([]sample, n), serialNs: make([]sample, n), runtimeS: make([]sample, n)}
}

// sweepPass visits every grain once in seeded order; at each it runs a
// reference slice (no runtime: serial at workers = 1, one goroutine per
// worker otherwise) and a runtime slice of the same bodies back to back,
// in seeded order, so the efficiency is paired against whatever the host
// was doing in those few milliseconds. The reference uses as many
// threads as the runtime because the host's two vCPUs together do about
// 1.2x, not 2x, the work of one: against a serial reference no runtime
// could be more than 60 % efficient here.
func (w *grainWorkload) sweepPass(r *run, rt *taskrt.Runtime, acc *sweepAcc) {
	slice := 10 * time.Millisecond // serial body time per slice
	if r.cfg.Quick {
		slice = time.Millisecond
	}
	for _, gi := range r.rng.Perm(len(w.sets)) {
		ws := w.sets[gi]
		threads := min(acc.workers, w.nproc)
		waves := max(1, int(math.Round(float64(slice.Nanoseconds())/(sweepGrainsUs[gi]*1000*wave))))
		waves = (waves + threads - 1) / threads * threads
		var serial time.Duration
		ok := true
		serialFirst := r.rng.Intn(2) == 0
		r.op("sweep w=%d grain=%g serialFirst=%v", acc.workers, sweepGrainsUs[gi], serialFirst)
		if serialFirst {
			serial, ok = ws.reference(waves, threads)
		}
		wt := ws.onRuntime(rt, waves, 0, false)
		if !serialFirst {
			serial, ok = ws.reference(waves, threads)
		}
		r.attempted.Add(int64(waves))
		if !ok || wt.bad > 0 {
			r.failN(max(wt.bad, 1), "sweep grain %g us: wrong task-return sum", sweepGrainsUs[gi])
		}
		acc.ratio[gi].add(float64(serial) / float64(wt.total))
		acc.serialNs[gi].add(float64(serial) / float64(waves/threads*wave))
		acc.runtimeS[gi].add(wt.total.Seconds())
	}
	acc.passes++
}

// grainUs is the measured serial time per task at each grain.
func (acc *sweepAcc) grainUs() []float64 {
	out := make([]float64, len(acc.serialNs))
	for gi := range out {
		out[gi] = acc.serialNs[gi].median() / 1e3
	}
	return out
}

// eff is the median paired efficiency at each grain.
func (acc *sweepAcc) eff() []float64 {
	out := make([]float64, len(acc.ratio))
	for gi := range out {
		out[gi] = acc.ratio[gi].median()
	}
	return out
}

// wall is the time of one pass on the runtime: the sum over grains of
// the median runtime slice.
func (acc *sweepAcc) wall() float64 {
	var t float64
	for gi := range acc.runtimeS {
		t += acc.runtimeS[gi].median()
	}
	return t
}

func (acc *sweepAcc) serialSpreads() []float64 {
	out := make([]float64, len(acc.serialNs))
	for gi := range out {
		out[gi] = spread(acc.serialNs[gi].xs)
	}
	return out
}

// block runs 1 us waves on rt for about d and returns tasks per second.
func (w *grainWorkload) block(r *run, rt *taskrt.Runtime, d time.Duration, grainNs int64, split bool) (float64, waveTimes) {
	// Waves per onRuntime call: about 5 ms, so the deadline is honoured.
	const chunk = 16
	var all waveTimes
	waves := 0
	for begin := time.Now(); time.Since(begin) < d; {
		wt := w.oneUs.onRuntime(rt, chunk, grainNs, split)
		all.total += wt.total
		all.submit += wt.submit
		all.wait += wt.wait
		all.release += wt.release
		all.bad += wt.bad
		waves += chunk
	}
	r.attempted.Add(int64(waves))
	if all.bad > 0 {
		r.failN(all.bad, "1 us waves: wrong task-return sums")
	}
	return float64(waves*wave) / all.total.Seconds(), all
}

// blockAcc accumulates paired throughput blocks.
type blockAcc struct{ bare, monitored, overheadPct sample }

// blockPair runs one bare and one monitored block of 1 us waves at
// workers = nproc, in seeded order. The monitor is the whole one: 1 kHz
// sweep of every /threads counter, scraped at 10 Hz.
func (w *grainWorkload) blockPair(r *run, acc *blockAcc) {
	blockLen := 250 * time.Millisecond
	if r.cfg.Quick {
		blockLen = 50 * time.Millisecond
	}
	monFirst := r.rng.Intn(2) == 0
	r.op("blocks pair %d monitoredFirst=%v", acc.bare.n(), monFirst)
	var b, m float64
	for _, mon := range []bool{monFirst, !monFirst} {
		if mon {
			w.mon.startLoops()
			m, _ = w.block(r, w.rtN, blockLen, 0, false)
			w.mon.accountLoops(r)
		} else {
			b, _ = w.block(r, w.rtN, blockLen, 0, false)
		}
	}
	acc.bare.add(b)
	acc.monitored.add(m)
	acc.overheadPct.add((b - m) / b * 100)
}

// forkJoinTrees runs n trees at workers = nproc and appends the seconds
// each took.
func (w *grainWorkload) forkJoinTrees(r *run, n int, secs *sample) {
	x := w.fjRoot
	for i := 0; i < n; i++ {
		t0 := time.Now()
		root := taskrt.Spawn(w.rtN, taskrt.Async, func() uint64 {
			return forkJoin(w.rtN, w.fjDepth, w.oneUs.iters, x)
		})
		sum := root.Get()
		secs.add(time.Since(t0).Seconds())
		root.Release()
		r.attempted.Add(1)
		if sum != w.fjWant {
			r.fail("fork-join tree: sum %d, want %d", sum, w.fjWant)
		}
	}
}

// measure cycles through all four measurements about once a second, so
// every metric samples the whole run: the host's speed changes every few
// seconds, and a metric measured in one stretch would inherit whichever
// speed that stretch had.
func (w *grainWorkload) measure(r *run) error {
	if r.cfg.Trace {
		return w.measureTraced(r)
	}
	sw := newSweepAcc(1)
	var blocks blockAcc
	var trees sample
	var scrapeUs []float64
	deadline := time.Now().Add(r.budget(0.95))
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		// A few scrape probes between the others, so that they cover
		// the whole run too.
		probe := func() { scrapeUs = append(scrapeUs, w.mon.sampleToScrape(r, 10)...) }
		w.sweepPass(r, w.rt1, sw)
		probe()
		w.blockPair(r, &blocks)
		probe()
		w.forkJoinTrees(r, 8, &trees)
		probe()
	}
	r.serialSpread = sw.serialSpreads()
	m := r.metrics
	m.set("serial_solve_s", sw.wall())
	m["serial_solve_s"].N = sw.passes
	m.setFast("tasks_per_s", blocks.bare.xs, 1)
	m.setFast("monitored_tasks_per_s", blocks.monitored.xs, 1)
	m.setFast("solve_s", trees.xs, 1)
	m.setFast("sample_to_scrape_us", scrapeUs, 1)
	return nil
}

// during calls step until d has passed, at least atLeast times.
func during(d time.Duration, atLeast int, step func()) {
	deadline := time.Now().Add(d)
	for i := 0; i < atLeast || time.Now().Before(deadline); i++ {
		step()
	}
}

// measureTraced is the per-layer run: both sweeps, the paired blocks,
// and one short phase for each remaining way the layer is used.
func (w *grainWorkload) measureTraced(r *run) error {
	m := r.metrics
	sw1, swN := newSweepAcc(1), newSweepAcc(w.nproc)
	during(r.budget(0.4), 2, func() {
		w.sweepPass(r, w.rt1, sw1)
		w.sweepPass(r, w.rtN, swN)
	})
	r.serialSpread = sw1.serialSpreads()
	eff1, effN := sw1.eff(), swN.eff()
	for gi, g := range sweepGrainsUs {
		m.set("taskrt.eff_w1_"+grainLabel(g), eff1[gi])
		m.set("taskrt.eff_wN_"+grainLabel(g), effN[gi])
	}
	m.set("taskrt.metg_us_w1", metg(sw1.grainUs(), eff1))
	m.set("taskrt.metg_us_wN", metg(swN.grainUs(), effN))

	// Paired blocks, each pair followed by a block with a clock read
	// between the three calls of a wave: the ledger of one wave, whose
	// cost against the bare block beside it is the tracing overhead.
	var blocks blockAcc
	var traced sample
	var ledger waveTimes
	before := readCount(w.regN)
	var children int64
	during(r.budget(0.3), 2, func() {
		w.blockPair(r, &blocks)
		c0 := readCount(w.regN)
		perS, wt := w.block(r, w.rtN, 100*time.Millisecond, 0, true)
		children += readCount(w.regN) - c0
		traced.add(perS)
		ledger.submit += wt.submit
		ledger.wait += wt.wait
		ledger.release += wt.release
	})
	m.setMedian("telemetry.monitor_overhead_pct", blocks.overheadPct.xs, 1)
	for name, d := range map[string]time.Duration{"submit": ledger.submit, "wait": ledger.wait, "release": ledger.release} {
		l := r.tr.layer("taskrt." + name)
		l.units.Add(children)
		l.ns.Add(int64(d))
		l.calls.Add(children / wave)
		m.set("taskrt."+name+"_ns_per_child", float64(d)/float64(children))
	}
	m.set("taskrt.tasks_executed", float64(readCount(w.regN)-before))
	m.set("trace_overhead_pct", (fastHigh(blocks.bare.xs)-fastHigh(traced.xs))/fastHigh(blocks.bare.xs)*100)

	var trees sample
	during(r.budget(0.08), 1, func() { w.forkJoinTrees(r, 4, &trees) })
	m.set("taskrt.forkjoin_tasks_per_s_1us", float64(int(1)<<w.fjDepth)/fastLow(trees.xs))

	w.hinted(r, r.budget(0.08))
	w.spawnMicro(r, r.budget(0.04))
	monitorLedger(r, w.mon, w.monSet, w.regN)
	r.tasks = float64(readCount(w.regN))
	return nil
}

// readCount is the runtime's executed-task counter.
func readCount(reg *core.Registry) int64 {
	v, err := reg.Evaluate("/threads{locality#0/total}/count/cumulative", false)
	if err != nil {
		return 0
	}
	return v.Raw
}

// hinted is phase (d): the 1 us waves with their grain hint, on a
// runtime with adaptive inlining.
func (w *grainWorkload) hinted(r *run, d time.Duration) {
	rt := taskrt.New(taskrt.WithWorkers(w.nproc), taskrt.WithAdaptiveInlining())
	defer rt.Shutdown()
	perS, _ := w.block(r, rt, d, 1000, false)
	r.metrics.set("taskrt.hinted_tasks_per_s_1us", perS)
	if all := rt.GrainInlined() + rt.GrainSpawned(); all > 0 {
		r.metrics.set("taskrt.inlined_share", float64(rt.GrainInlined())/float64(all))
	}
}

// spawnMicro reproduces BENCH_taskrt.json's spawn_get_ns and
// batch_spawn_ns: empty bodies, workers = 1, issued from a root task.
func (w *grainWorkload) spawnMicro(r *run, d time.Duration) {
	const n = 4096
	one := func() uint64 { return 1 }
	empties := make([]func() uint64, wave)
	for i := range empties {
		empties[i] = one
	}
	var single, batch sample
	for begin := time.Now(); single.n() < 3 || time.Since(begin) < d; {
		root := taskrt.Spawn(w.rt1, taskrt.Async, func() [2]time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f := taskrt.Spawn(w.rt1, taskrt.Async, one)
				f.Get()
				f.Release()
			}
			t1 := time.Now()
			for i := 0; i < n; i += wave {
				fs := taskrt.AsyncBatch(w.rt1, empties)
				taskrt.WaitAllOf(fs)
				taskrt.ReleaseAll(fs)
			}
			return [2]time.Duration{t1.Sub(t0), time.Since(t1)}
		})
		ds := root.Get()
		root.Release()
		single.add(float64(ds[0]) / n)
		batch.add(float64(ds[1]) / n)
	}
	r.metrics.setFast("taskrt.spawn_get_ns", single.xs, 1)
	r.metrics.setFast("taskrt.batch_spawn_ns", batch.xs, 1)
}
