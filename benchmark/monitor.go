package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// monitor is "the whole monitor" of the paper's overhead experiment:
// every /threads counter of a registry compiled into a core.BindSet,
// swept by a telemetry.Collector into a Sampler, and exported on HTTP
// /metrics where a scraper reads it — all in this process, over one
// loopback connection.
type monitor struct {
	series  int // counters per sweep, so series per scrape
	sampler *telemetry.Sampler
	coll    *telemetry.Collector
	ln      net.Listener
	srv     *http.Server
	client  *http.Client
	url     string

	served  sync.WaitGroup // the HTTP server goroutine
	stop    chan struct{}  // closed to end the periodic scraper
	done    chan struct{}  // closed by the scraper when it has ended
	scrapes int64          // by the periodic scraper; read after stopLoops
	bad     []string
	buf     bytes.Buffer // scrape body; the scraper and scrape() never overlap
}

const (
	monitorPattern  = "/threads{locality#0/*}/*"
	monitorInterval = time.Millisecond       // collector sweep: 1 kHz
	scrapeInterval  = 100 * time.Millisecond // scraper: 10 Hz
)

// bindPattern compiles every counter of reg matching pattern.
func bindPattern(reg *core.Registry, pattern string) (*core.BindSet, error) {
	names, err := reg.Discover(pattern)
	if err != nil {
		return nil, fmt.Errorf("discover %s: %w", pattern, err)
	}
	full := make([]string, len(names))
	for i, n := range names {
		full[i] = n.String()
	}
	set, err := reg.BindSet(full)
	if err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("no counter matches %s", pattern)
	}
	return set, nil
}

// bindSetSource sweeps set into a reused buffer, the allocation-free
// steady-state sampling loop.
func bindSetSource(set *core.BindSet) telemetry.Source {
	var vals []core.Value
	return func() []core.Value {
		vals = set.EvaluateBatch(vals, false)
		return vals
	}
}

// newMonitor wires src (which yields series counters per sweep) into a
// sampler swept every interval and starts the HTTP export. Sampling and
// scraping start with startLoops.
func newMonitor(src telemetry.Source, series int, interval time.Duration) (*monitor, error) {
	m := &monitor{series: series, sampler: telemetry.NewSampler(16)}
	m.coll = telemetry.NewCollector(m.sampler, src, interval)
	var err error
	if m.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	m.srv = &http.Server{Handler: telemetry.Handler(m.sampler)}
	m.served.Add(1)
	go func() {
		defer m.served.Done()
		_ = m.srv.Serve(m.ln) // returns ErrServerClosed at close
	}()
	m.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 5 * time.Second}
	m.url = "http://" + m.ln.Addr().String() + "/metrics"
	return m, nil
}

// newThreadsMonitor is the monitor over every /threads counter of reg.
func newThreadsMonitor(reg *core.Registry) (*monitor, *core.BindSet, error) {
	set, err := bindPattern(reg, monitorPattern)
	if err != nil {
		return nil, nil, err
	}
	m, err := newMonitor(bindSetSource(set), set.Len(), monitorInterval)
	return m, set, err
}

// startLoops begins the periodic sweep and the 10 Hz scrape.
func (m *monitor) startLoops() {
	m.coll.Start()
	m.stop, m.done = make(chan struct{}), make(chan struct{})
	stop, done := m.stop, m.done
	go func() {
		defer close(done)
		t := time.NewTicker(scrapeInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.scrapes++
				if _, err := m.scrape(); err != nil {
					m.bad = append(m.bad, err.Error())
				}
			}
		}
	}()
}

// stopLoops ends sweep and scrape and reports how many periodic scrapes
// ran and which of them failed.
func (m *monitor) stopLoops() (scrapes int64, bad []string) {
	if m.stop == nil {
		return 0, nil
	}
	close(m.stop)
	<-m.done
	m.stop = nil
	m.coll.Stop()
	scrapes, bad = m.scrapes, m.bad
	m.scrapes, m.bad = 0, nil
	return scrapes, bad
}

// scrape GETs /metrics, reads the whole body and checks it carries one
// series per bound counter. It returns the body size.
func (m *monitor) scrape() (int, error) {
	resp, err := m.client.Get(m.url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	m.buf.Reset()
	if _, err := io.Copy(&m.buf, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	series := 0
	for rest := m.buf.Bytes(); len(rest) > 0; {
		line, tail, _ := bytes.Cut(rest, []byte{'\n'})
		if len(line) > 0 && line[0] != '#' {
			series++
		}
		rest = tail
	}
	if series != m.series {
		return 0, fmt.Errorf("scrape: %d series, want %d", series, m.series)
	}
	return m.buf.Len(), nil
}

// close shuts the HTTP export down and waits for its goroutines.
func (m *monitor) close() {
	m.stopLoops()
	_ = m.srv.Close()
	m.client.CloseIdleConnections()
	m.served.Wait()
}

// sampleToScrape times n rounds of one sweep followed by one full
// scrape, in microseconds; failed scrapes count as failed operations.
func (m *monitor) sampleToScrape(r *run, n int) []float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		m.coll.SampleOnce()
		_, err := m.scrape()
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		r.attempted.Add(1)
		if err != nil {
			r.fail("sample-to-scrape: %v", err)
		}
	}
	return us
}

// accountLoops stops the periodic loops and books their scrapes as
// operations of the run.
func (m *monitor) accountLoops(r *run) {
	n, bad := m.stopLoops()
	r.attempted.Add(n)
	for _, b := range bad {
		r.fail("periodic scrape: %s", b)
	}
}

// monitorLedger fills the core.* and telemetry.* per-layer metrics by
// timing each stage of the local monitor on its own, with the loops
// stopped: a batch sweep (per counter), a single handle read, a whole
// Collector sample, and a scrape.
func monitorLedger(r *run, m *monitor, set *core.BindSet, reg *core.Registry) {
	const block = 1000 // reads per span: one read is shorter than a clock pair
	reps := 200
	if r.cfg.Quick {
		reps = 20
	}
	batch, handle := r.tr.layer("core.evaluate_batch"), r.tr.layer("core.handle_evaluate")
	var buf []core.Value
	for i := 0; i < reps*10; i++ {
		t0 := time.Now()
		buf = set.EvaluateBatch(buf, false)
		batch.observe(t0, time.Now(), 0, 0, int64(set.Len()))
	}
	h := set.Handle(0)
	for i := 0; i < reps/10+1; i++ {
		t0 := time.Now()
		for j := 0; j < block; j++ {
			h.Evaluate(false)
		}
		handle.observe(t0, time.Now(), 0, 0, block)
	}
	var sampleUs, scrapeUs, scrapeBytes sample
	once, scrape := r.tr.layer("telemetry.sample_once"), r.tr.layer("telemetry.scrape")
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		m.coll.SampleOnce()
		t1 := time.Now()
		n, err := m.scrape()
		t2 := time.Now()
		once.observe(t0, t1, 0, int64(i), 1)
		scrape.observe(t1, t2, 0, int64(i), 1)
		r.attempted.Add(1)
		if err != nil {
			r.fail("ledger scrape: %v", err)
		}
		sampleUs.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
		scrapeUs.add(float64(t2.Sub(t1).Nanoseconds()) / 1e3)
		scrapeBytes.add(float64(n))
	}
	_, counters, _ := reg.SamplingCost()
	ms := r.metrics
	ms.set("core.evaluate_batch_ns", batch.meanNs())
	ms.set("core.handle_evaluate_ns", handle.meanNs())
	ms.set("core.counters_sampled", float64(counters))
	ms.setMedian("telemetry.sample_once_us", sampleUs.xs, 1)
	ms.setMedian("telemetry.scrape_us", scrapeUs.xs, 1)
	ms.set("telemetry.scrape_bytes", scrapeBytes.median())
	// Share of one core the monitor's own work takes at its rates.
	perSecond := sampleUs.median()*float64(time.Second/monitorInterval) +
		scrapeUs.median()*float64(time.Second/scrapeInterval)
	ms.set("telemetry.duty_pct", perSecond/1e6*100)
}
