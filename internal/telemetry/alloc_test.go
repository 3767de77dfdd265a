package telemetry

// Steady-state allocation contracts of the export plane: scraping
// /metrics and ticking a RegistrySource must not allocate once the
// name-conversion cache and pooled render buffers are warm, so the
// telemetry plane cannot perturb the application it measures.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
)

func warmSampler(tb testing.TB, series int) *Sampler {
	tb.Helper()
	s := NewSampler(16)
	now := time.Now()
	for i := 0; i < series; i++ {
		name := fmt.Sprintf("/threads{locality#0/worker-thread#%d}/count/cumulative", i)
		s.Observe(name, Point{Time: now, Value: float64(i)})
	}
	// One unparsable name keeps the taskrt_counter fallback on the path.
	s.Observe("not a counter name", Point{Time: now, Value: 1})
	return s
}

func TestWritePrometheusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool/sync.Map")
	}
	s := warmSampler(t, 24)
	WritePrometheus(io.Discard, s) // warm the render pool
	n := testing.AllocsPerRun(200, func() { WritePrometheus(io.Discard, s) })
	if n != 0 {
		t.Fatalf("WritePrometheus allocates %v per scrape at steady state, want 0", n)
	}
}

func TestRegistrySourceAllocs(t *testing.T) {
	reg := core.NewRegistry()
	for i := 0; i < 8; i++ {
		cn := core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...)
		reg.MustRegister(core.NewRawCounter(cn, core.Info{TypeName: "/threads/count/cumulative"}))
	}
	if _, err := reg.AddActive("/threads{locality#0/worker-thread#*}/count/cumulative"); err != nil {
		t.Fatal(err)
	}
	src := RegistrySource(reg, false)
	if got := len(src()); got != 8 {
		t.Fatalf("source yields %d values, want 8", got)
	}
	n := testing.AllocsPerRun(200, func() { src() })
	if n != 0 {
		t.Fatalf("RegistrySource tick allocates %v per run at steady state, want 0", n)
	}
}

func TestFlightRecordAllocs(t *testing.T) {
	// The flight recorder exists to capture the moments the runtime is
	// already unhealthy — allocating on the record path would perturb
	// exactly the state it is trying to preserve. The ring is
	// pre-allocated at arm time; Record must stay zero-alloc even while
	// bursting, wrapping, and truncating.
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fr := NewFlightRecorder()
	vals := flightVals(frameValues+4, 7) // truncation path included
	t0 := time.Unix(100, 0)
	fr.triggerAt(t0, "alloc test") // burst path included
	i := 0
	n := testing.AllocsPerRun(ringFrames+100, func() { // wraps the ring
		i++
		fr.Record(t0.Add(time.Duration(i)*time.Millisecond), vals)
	})
	if n != 0 {
		t.Fatalf("flight Record allocates %v per frame, want 0", n)
	}
}

func TestCollectorSampleWithFlightAllocs(t *testing.T) {
	// The full per-tick observe path — registry sweep, sampler ring
	// append, flight ring copy — at steady state. time.Now() inside
	// SampleOnce is the only runtime call and does not allocate.
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reg := core.NewRegistry()
	for i := 0; i < 8; i++ {
		cn := core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...)
		reg.MustRegister(core.NewRawCounter(cn, core.Info{TypeName: "/threads/count/cumulative"}))
	}
	if _, err := reg.AddActive("/threads{locality#0/worker-thread#*}/count/cumulative"); err != nil {
		t.Fatal(err)
	}
	s := NewSampler(4) // small ring: eviction path included
	c := NewCollector(s, RegistrySource(reg, false), time.Second)
	fr := NewFlightRecorder()
	c.EnableFlight(fr)
	c.TriggerFlight("alloc test")
	for i := 0; i < 8; i++ { // warm the sampler's series map
		c.SampleOnce()
	}
	n := testing.AllocsPerRun(200, func() { c.SampleOnce() })
	if n != 0 {
		t.Fatalf("collector sample with flight attached allocates %v per tick, want 0", n)
	}
}

func TestWritePrometheusPoolReuse(t *testing.T) {
	// Renders from a pool-warmed state must be byte-identical to a cold
	// render: pooled scratch may not leak rows between scrapes.
	s := warmSampler(t, 4)
	var cold captureWriter
	WritePrometheus(&cold, s)
	big := warmSampler(t, 64)
	var scratch captureWriter
	WritePrometheus(&scratch, big) // grows the pooled buffers
	var warm captureWriter
	WritePrometheus(&warm, s)
	if string(cold.buf) != string(warm.buf) {
		t.Fatalf("pooled render differs from cold render:\ncold:\n%s\nwarm:\n%s", cold.buf, warm.buf)
	}
}

type captureWriter struct{ buf []byte }

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}
