package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/parcel"
	"repro/internal/taskrt"
	"repro/internal/telemetry"
)

// serverOptions configures the parcel server explicitly: with the
// defaults (4096 entries retained 2 min) the 4097th spawn of a run is
// refused with "spawn table full", about 0.2 s into the load.
var serverOptions = parcel.ServerOptions{SpawnRetention: 250 * time.Millisecond, MaxSpawnTasks: 1 << 17}

const (
	inFlight     = 64  // closed-loop clients in the throughput phases
	bulkK        = 128 // counters in the sampled bulk set
	bulkInterval = 10 * time.Millisecond
	holSlowMs    = 200 // the timer the head-of-line probe parks behind
	holDelay     = 20 * time.Millisecond
	// ledgerSpawns is how many traced serial spawns the ledger times.
	ledgerSpawns = 4000
	// providerWorkers sizes the idle taskrt runtime whose /threads
	// counters the server exports: 16 workers give more than bulkK names.
	providerWorkers = 16
)

type remoteWorkload struct {
	provider *taskrt.Runtime
	sreg     *core.Registry
	creg     *core.Registry
	srv      *parcel.Server
	client   *parcel.Client
	res      *agas.Resolver
	names    []string // bulkK counter names on the server
	mon      *monitor
	bulkBad  atomic.Int64 // failed bulk evaluations inside the monitor source
	bulkAll  atomic.Int64
	refused  atomic.Int64 // spawns the server's table refused

	// Stamps of the traced echo's body, indexed by its argument, in
	// nanoseconds since stampEpoch. Atomic: the server's goroutine writes
	// them and only a TCP round trip orders that before the client's read.
	stampEpoch      time.Time
	entered, exited []atomic.Int64
}

// echoReply is what echo(x) must return; not the identity, so a reply
// that merely mirrors the request bytes is caught.
func echoReply(x int) int { return x ^ 0x5a5a }

func (w *remoteWorkload) setup(r *run) error {
	w.provider = taskrt.New(taskrt.WithWorkers(providerWorkers))
	w.sreg, w.creg = core.NewRegistry(), core.NewRegistry()
	if err := w.provider.RegisterCounters(w.sreg); err != nil {
		return err
	}
	set, err := bindPattern(w.sreg, monitorPattern)
	if err != nil {
		return err
	}
	if set.Len() < bulkK {
		return fmt.Errorf("server exports %d /threads counters, need %d", set.Len(), bulkK)
	}
	w.names = set.Names()[:bulkK]
	// Allocated before the server starts, so its goroutines see them.
	w.stampEpoch = time.Now()
	w.entered, w.exited = make([]atomic.Int64, ledgerSpawns), make([]atomic.Int64, ledgerSpawns)

	actions := parcel.NewActionMap()
	if err := parcel.RegisterAction(actions, "echo", func(x int) (int, error) { return echoReply(x), nil }); err != nil {
		return err
	}
	if err := parcel.RegisterAction(actions, "echo_traced", func(x int) (int, error) {
		w.entered[x].Store(int64(time.Since(w.stampEpoch)))
		v := echoReply(x)
		w.exited[x].Store(int64(time.Since(w.stampEpoch)))
		return v, nil
	}); err != nil {
		return err
	}
	if err := parcel.RegisterAction(actions, "timer", func(ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	}); err != nil {
		return err
	}
	if w.srv, err = parcel.ServeOptions("127.0.0.1:0", w.sreg, 0, serverOptions); err != nil {
		return err
	}
	w.srv.WithActions(actions)
	if w.client, err = parcel.DialContext(context.Background(), w.srv.Addr(), w.creg, 1, parcel.ClientOptions{}); err != nil {
		return err
	}
	w.res = agas.NewResolver()
	if err := w.res.BindRemote(0, w.client); err != nil {
		return err
	}
	if err := w.res.BindActions(0, "echo", "echo_traced", "timer"); err != nil {
		return err
	}
	if err := w.res.EnableRemoteCounters(w.creg, 1); err != nil {
		return err
	}
	w.mon, err = newMonitor(w.bulkSource(w.client.NewBulkSet(w.names)), bulkK, bulkInterval)
	if err != nil {
		return err
	}
	// One exchange of each kind, so the bulk set is bound and the
	// connection warm before anything is timed.
	w.mon.coll.SampleOnce()
	if v, err := agas.SpawnRemote[int, int](w.res, "echo", 1).Get(); err != nil || v != echoReply(1) {
		return fmt.Errorf("warm-up echo: %d, %v", v, err)
	}
	return nil
}

// bulkSource samples set in one round trip per sweep.
func (w *remoteWorkload) bulkSource(set *parcel.BulkSet) telemetry.Source {
	return func() []core.Value {
		w.bulkAll.Add(1)
		vals, err := set.Evaluate(false)
		if err != nil {
			w.bulkBad.Add(1)
		}
		return vals
	}
}

func (w *remoteWorkload) teardown() {
	if w.mon != nil {
		w.mon.close()
		w.mon = nil
	}
	if w.client != nil {
		_ = w.client.Close()
		w.client = nil
	}
	if w.srv != nil {
		_ = w.srv.Close()
		w.srv = nil
	}
	if w.provider != nil {
		w.provider.Shutdown()
		w.provider = nil
	}
}

// echo spawns echo(x) through the resolver and checks the reply. Every
// call is one attempted operation; it returns false on failure.
func (w *remoteWorkload) echo(r *run, x int) bool {
	r.attempted.Add(1)
	v, err := agas.SpawnRemote[int, int](w.res, "echo", x).Get()
	switch {
	case errors.Is(err, parcel.ErrSpawnLimit):
		w.refused.Add(1)
		r.fail("echo(%d) refused: %v", x, err)
	case err != nil:
		r.fail("echo(%d): %v", x, err)
	case v != echoReply(x):
		r.fail("echo(%d) = %d, want %d", x, v, echoReply(x))
	default:
		return true
	}
	return false
}

// serialRound issues n echo spawns one at a time. It returns the
// round's wall seconds and each spawn's latency in microseconds.
func (w *remoteWorkload) serialRound(r *run, base, n int) (float64, []float64) {
	us := make([]float64, n)
	begin := time.Now()
	for i := range us {
		t0 := time.Now()
		w.echo(r, base+i)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return time.Since(begin).Seconds(), us
}

// flightBlock keeps inFlight spawns of action(arg) in flight for d and
// returns completed spawns per second.
func (w *remoteWorkload) flightBlock(r *run, d time.Duration, slowMs int) float64 {
	var done atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(d)
	for g := 0; g < inFlight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				ok := false
				if slowMs > 0 {
					r.attempted.Add(1)
					v, err := agas.SpawnRemote[int, int](w.res, "timer", slowMs).Get()
					if ok = err == nil && v == slowMs; !ok {
						r.fail("timer(%d): %d, %v", slowMs, v, err)
					}
				} else {
					ok = w.echo(r, g<<20|i)
				}
				if ok {
					done.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(begin).Seconds()
}

// flightPair runs one bare block and one mixed block, in seeded order.
// In a mixed block the bulk set is sampled at 100 Hz on the same client
// and scraped at 10 Hz: counter reads beside spawn writes on one
// half-duplex connection.
func (w *remoteWorkload) flightPair(r *run, bare, mixed *sample) {
	blockLen := 250 * time.Millisecond
	if r.cfg.Quick {
		blockLen = 60 * time.Millisecond
	}
	mixedFirst := r.rng.Intn(2) == 0
	r.op("flight pair %d mixedFirst=%v", bare.n(), mixedFirst)
	for _, mix := range []bool{mixedFirst, !mixedFirst} {
		if mix {
			w.mon.startLoops()
			mixed.add(w.flightBlock(r, blockLen, 0))
			w.mon.accountLoops(r)
		} else {
			bare.add(w.flightBlock(r, blockLen, 0))
		}
	}
}

// holProbe measures head-of-line blocking once: the latency, in
// seconds, of an echo issued holDelay after a holSlowMs timer on the
// same client.
func (w *remoteWorkload) holProbe(r *run, x int) float64 {
	r.attempted.Add(1)
	slow := agas.SpawnRemote[int, int](w.res, "timer", holSlowMs)
	time.Sleep(holDelay)
	t0 := time.Now()
	w.echo(r, x)
	d := time.Since(t0).Seconds()
	if v, err := slow.Get(); err != nil || v != holSlowMs {
		r.fail("timer(%d): %d, %v", holSlowMs, v, err)
	}
	return d
}

// accountBulk books the monitor source's bulk evaluations as operations.
func (w *remoteWorkload) accountBulk(r *run) {
	r.attempted.Add(w.bulkAll.Swap(0))
	if n := w.bulkBad.Swap(0); n > 0 {
		r.failN(int(n), "bulk evaluate failed")
	}
}

// measure cycles through all four measurements about once a second, so
// every metric samples the whole run (see grainWorkload.measure).
func (w *remoteWorkload) measure(r *run) error {
	defer w.accountBulk(r)
	if r.cfg.Trace {
		return w.measureTraced(r)
	}
	perRound := 1000
	if r.cfg.Quick {
		perRound = 100
	}
	var walls, bare, mixed, hol sample
	var scrapeUs []float64
	deadline := time.Now().Add(r.budget(0.95))
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		base := r.rng.Intn(1 << 20)
		r.op("serial round %d base=%d", cycle, base)
		// A few scrape probes between the others, so that they cover
		// the whole run too.
		probe := func() { scrapeUs = append(scrapeUs, w.mon.sampleToScrape(r, 10)...) }
		wall, _ := w.serialRound(r, base, perRound)
		walls.add(wall)
		probe()
		w.flightPair(r, &bare, &mixed)
		probe()
		// The probe reads within 0.1 %, so every other cycle is plenty.
		if cycle%2 == 0 {
			hol.add(w.holProbe(r, base))
			probe()
		}
	}
	r.serialSpread = []float64{spread(walls.xs)}
	m := r.metrics
	m.setMedian("serial_solve_s", walls.xs, 1)
	m.setFast("tasks_per_s", bare.xs, 1)
	m.setFast("monitored_tasks_per_s", mixed.xs, 1)
	m.setFast("solve_s", hol.xs, 1)
	m.setFast("sample_to_scrape_us", scrapeUs, 1)
	return nil
}

// clientMeters reads the client's own parcel meters.
func (w *remoteWorkload) clientMeters() (parcels, bytes float64) {
	read := func(counter string) float64 {
		v, err := w.creg.Evaluate("/parcels{locality#1/total}/"+counter, false)
		if err != nil {
			return 0
		}
		return float64(v.Raw)
	}
	return read("count/sent"), read("data/sent") + read("data/received")
}

// measureTraced is the per-layer run of the remote plane.
func (w *remoteWorkload) measureTraced(r *run) error {
	m := r.metrics
	faults0 := w.client.FaultCounts()
	w.spawnLedger(r)
	w.routingLedger(r)
	w.longPollLedger(r)

	var hol sample
	minProbes := 5
	if r.cfg.Quick {
		minProbes = 1
	}
	during(r.budget(0.1), minProbes, func() { hol.add(w.holProbe(r, hol.n())) })
	m.setFast("parcel.hol_fast_spawn_ms", hol.xs, 1000)

	w.counterLedger(r)

	faults1 := w.client.FaultCounts()
	retried, _ := w.creg.Evaluate("/runtime{locality#1/total}/remote/count/retried", false)
	m.set("parcel.retries", float64(faults1.Retries-faults0.Retries)+float64(retried.Raw))
	m.set("parcel.spawn_refused", float64(w.refused.Load()))
	r.tasks = float64(r.attempted.Load())
	return nil
}

// spawnLedger is the ledger of one spawn: the client's two calls as
// spans, and the body's entry and exit stamped by the action on the same
// clock, so the request leg, the body and the response leg sum to the
// spawn.
func (w *remoteWorkload) spawnLedger(r *run) {
	m := r.metrics
	ctx := context.Background()
	n := ledgerSpawns
	if r.cfg.Quick {
		n = 100
	}

	spawnL, actionL, waitL := r.tr.layer("parcel.spawn"), r.tr.layer("parcel.spawn_action"), r.tr.layer("parcel.wait_spawn")
	reqL, bodyL, respL := r.tr.layer("parcel.request_leg"), r.tr.layer("parcel.body"), r.tr.layer("parcel.response_leg")
	// direct spawns action(i) with the client's two calls and returns the
	// clock before, between and after them.
	direct := func(action string, i int) (t0, t1, t2 time.Time, ok bool) {
		r.attempted.Add(1)
		arg, _ := json.Marshal(i) // an int always marshals
		key := fmt.Sprintf("%s-%d-%d", action, r.cfg.Seed, i)
		t0 = time.Now()
		st, err := w.client.SpawnAction(ctx, action, arg, key)
		t1 = time.Now()
		if err == nil && !st.Done {
			st, err = w.client.WaitSpawn(ctx, key)
		}
		t2 = time.Now()
		var v int
		if err == nil && st.Err == nil {
			err = json.Unmarshal(st.Result, &v)
		}
		if err != nil || st.Err != nil || v != echoReply(i) {
			r.fail("direct %s(%d): %d, %v, %v", action, i, v, err, st.Err)
			return t0, t1, t2, false
		}
		return t0, t1, t2, true
	}
	// Traced and plain spawns alternate, so that their difference is the
	// cost of tracing and not of the moment.
	var tracedUs, plainUs sample
	for i := 0; i < n; i++ {
		if t0, _, t2, ok := direct("echo", i); ok {
			plainUs.add(float64(t2.Sub(t0).Nanoseconds()) / 1e3)
		}
		t0, t1, t2, ok := direct("echo_traced", i)
		if !ok {
			continue
		}
		op := int64(i)
		id := spawnL.observe(t0, t2, 0, op, 1)
		actionL.observe(t0, t1, id, op, 1)
		waitL.observe(t1, t2, id, op, 1)
		in := w.stampEpoch.Add(time.Duration(w.entered[i].Load()))
		out := w.stampEpoch.Add(time.Duration(w.exited[i].Load()))
		reqL.observe(t0, in, id, op, 1)
		bodyL.observe(in, out, id, op, 1)
		respL.observe(out, t2, id, op, 1)
		tracedUs.add(float64(t2.Sub(t0).Nanoseconds()) / 1e3)
	}
	m.set("trace_overhead_pct", (tracedUs.mean()-plainUs.mean())/plainUs.mean()*100)
	m.set("parcel.spawn_action_us", actionL.meanNs()/1e3)
	m.set("parcel.wait_spawn_us", waitL.meanNs()/1e3)
	m.set("parcel.request_leg_us", reqL.meanNs()/1e3)
	m.set("parcel.body_us", bodyL.meanNs()/1e3)
	m.set("parcel.response_leg_us", respL.meanNs()/1e3)
}

// routingLedger issues untraced serial spawns alternately through the
// resolver and straight on the client: the difference is the routing
// layer. The client's own meters give parcels and bytes per spawn.
func (w *remoteWorkload) routingLedger(r *run) {
	m := r.metrics
	ctx := context.Background()
	perRound := 500
	if r.cfg.Quick {
		perRound = 50
	}
	var viaAgas, spawnOn sample
	var lat [][]float64
	parcels0, bytes0 := w.clientMeters()
	spawns := 0
	for begin := time.Now(); viaAgas.n() < 2 || time.Since(begin) < r.budget(0.2); {
		wall, us := w.serialRound(r, 0, perRound)
		viaAgas.add(wall / float64(perRound) * 1e6)
		lat = append(lat, us)
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			r.attempted.Add(1)
			v, err := parcel.SpawnOn[int, int](ctx, w.client, "echo", i).Get()
			if err != nil || v != echoReply(i) {
				r.fail("SpawnOn echo(%d): %d, %v", i, v, err)
			}
		}
		spawnOn.add(float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(perRound))
		spawns += 2 * perRound
	}
	parcels1, bytes1 := w.clientMeters()
	p50, p99 := spawnPercentiles(lat)
	m.set("parcel.spawn_p50_us", p50)
	m.set("parcel.spawn_p99_us", p99)
	m.set("agas.route_us", viaAgas.median()-spawnOn.median())
	m.set("parcel.parcels_per_spawn", (parcels1-parcels0)/float64(spawns))
	m.set("parcel.bytes_per_spawn", (bytes1-bytes0)/float64(spawns))
}

// longPollLedger times the long-poll path: bodies (a 2 ms timer) that
// outlive the spawn reply, at 64 in flight and one at a time.
func (w *remoteWorkload) longPollLedger(r *run) {
	m := r.metrics
	ctx := context.Background()
	m.set("parcel.slow_body_spawn_per_s_64", w.flightBlock(r, r.budget(0.08), 2))
	var pollUs sample
	for i := 0; i < 20 || (i < 400 && !r.cfg.Quick && pollUs.n() < 150); i++ {
		r.attempted.Add(1)
		arg, _ := json.Marshal(2)
		key := fmt.Sprintf("poll-%d-%d", r.cfg.Seed, i)
		st, err := w.client.SpawnAction(ctx, "timer", arg, key)
		if err != nil || st.Done {
			r.fail("timer spawn: done=%v, %v", st.Done, err)
			continue
		}
		t0 := time.Now()
		if st, err = w.client.WaitSpawn(ctx, key); err != nil || st.Err != nil {
			r.fail("timer wait: %v, %v", err, st.Err)
			continue
		}
		pollUs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	m.setMedian("parcel.poll_wait_us", pollUs.xs, 1)
}

// spawnPercentiles is the median over rounds of each round's p50, and
// the p99 of the pooled latencies when at least ten samples lie beyond
// it (otherwise the highest percentile that has ten beyond it).
func spawnPercentiles(rounds [][]float64) (p50, p99 float64) {
	var p50s sample
	var pooled []float64
	for _, us := range rounds {
		p50s.add(percentile(us, 50))
		pooled = append(pooled, us...)
	}
	return p50s.median(), percentile(pooled, tailPercentile(len(pooled)))
}

// tailPercentile is 99, or lower when n samples leave fewer than ten
// beyond the 99th.
func tailPercentile(n int) float64 {
	if n == 0 {
		return 99
	}
	return min(99, 100*(1-10/float64(n)))
}

// counterLedger times the counter-read path stage by stage: one remote
// counter, bulk sets of 1, 16 and bulkK, folding a sweep into the
// sampler, the scrape, and the same single read routed through agas.
func (w *remoteWorkload) counterLedger(r *run) {
	m := r.metrics
	reps := 300
	if r.cfg.Quick {
		reps = 20
	}
	timeUs := func(layer string, fn func() error) float64 {
		l := r.tr.layer(layer)
		var us sample
		for i := 0; i < reps; i++ {
			r.attempted.Add(1)
			t0 := time.Now()
			err := fn()
			t1 := time.Now()
			l.observe(t0, t1, 0, int64(i), 1)
			if err != nil {
				r.fail("%s: %v", layer, err)
			}
			us.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
		}
		return us.median()
	}
	m.set("parcel.evaluate_us", timeUs("parcel.evaluate", func() error {
		_, err := w.client.Evaluate(w.names[0], false)
		return err
	}))
	m.set("agas.evaluate_counter_us", timeUs("agas.evaluate_counter", func() error {
		_, err := w.res.EvaluateCounter(w.names[0], false)
		return err
	}))
	var last []core.Value
	for _, k := range []int{1, 16, bulkK} {
		set := w.client.NewBulkSet(w.names[:k])
		name := fmt.Sprintf("parcel.bulk_sample_us_k%d", k)
		m.set(name, timeUs(fmt.Sprintf("parcel.bulk_sample_k%d", k), func() error {
			vals, err := set.Evaluate(false)
			if err == nil && len(vals) != k {
				err = fmt.Errorf("%d values, want %d", len(vals), k)
			}
			last = vals
			return err
		}))
	}
	m.set("telemetry.observe_us", timeUs("telemetry.observe", func() error {
		for _, v := range last {
			w.mon.sampler.ObserveValue(v)
		}
		return nil
	}))
	var bytes sample
	m.set("telemetry.scrape_us", timeUs("telemetry.scrape", func() error {
		n, err := w.mon.scrape()
		bytes.add(float64(n))
		return err
	}))
	m.set("telemetry.scrape_bytes", bytes.median())
	m.set("telemetry.sample_once_us", timeUs("telemetry.sample_once", func() error {
		w.mon.coll.SampleOnce()
		return nil
	}))
	m.set("core.counters_sampled", float64(w.bulkAll.Load()*bulkK))
}
