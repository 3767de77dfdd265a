package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func pointCount(snap []Series) int {
	n := 0
	for _, se := range snap {
		n += len(se.Points)
	}
	return n
}

// TestCollectorSetIntervalRuntime: shrinking the interval on a running
// collector takes effect immediately — the loop re-arms instead of
// sleeping out the old interval.
func TestCollectorSetIntervalRuntime(t *testing.T) {
	reg := newTestRegistry(t)
	s := NewSampler(128)
	// Start glacial: at 1h the loop would take one synchronous sample
	// and then sleep forever.
	c := NewCollector(s, RegistrySource(reg, false), time.Hour)
	if c.Interval() != time.Hour {
		t.Fatalf("interval = %v", c.Interval())
	}
	c.Start()
	defer c.Stop()

	c.SetInterval(5 * time.Millisecond)
	if c.Interval() != 5*time.Millisecond {
		t.Fatalf("interval after set = %v", c.Interval())
	}
	deadline := time.Now().Add(2 * time.Second)
	for pointCount(s.Snapshot()) < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("interval change did not take effect: %d points",
				pointCount(s.Snapshot()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Clamp: anything under MinInterval floors there.
	c.SetInterval(time.Nanosecond)
	if c.Interval() != MinInterval {
		t.Fatalf("interval not clamped: %v", c.Interval())
	}
}

// TestCollectorStopStartReuse: a stopped collector can be started again
// and keeps sampling into the same sampler — series history survives
// the restart.
func TestCollectorStopStartReuse(t *testing.T) {
	reg := newTestRegistry(t)
	s := NewSampler(128)
	// Stop waits out a pull in flight, so none may be running once it
	// has returned.
	inner := RegistrySource(reg, false)
	var inFlight atomic.Bool
	src := func() []core.Value {
		inFlight.Store(true)
		defer inFlight.Store(false)
		return inner()
	}
	c := NewCollector(s, src, 5*time.Millisecond)

	waitPoints := func(min int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for pointCount(s.Snapshot()) < min {
			if time.Now().After(deadline) {
				t.Fatalf("timed out at %d points, want >= %d", pointCount(s.Snapshot()), min)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c.Start()
	waitPoints(2)
	c.Stop()
	if inFlight.Load() {
		t.Fatal("Stop returned with a sample in flight")
	}
	mark := pointCount(s.Snapshot())

	c.Start() // reuse: same sampler, same source
	waitPoints(mark + 2)
	c.Stop()
	if got := pointCount(s.Snapshot()); got < mark {
		t.Fatalf("restart lost history: %d < %d", got, mark)
	}
}

// TestCollectorStopNoDeadlock: Stop while a sample is in flight (slow
// source) and while SampleOnce races from other goroutines must return
// promptly — Stop does not take the sample lock.
func TestCollectorStopNoDeadlock(t *testing.T) {
	reg := newTestRegistry(t)
	s := NewSampler(16)
	inner := RegistrySource(reg, false)
	var slowMu sync.Mutex // sources share a buffer; serialize the copies
	slow := func() []core.Value {
		time.Sleep(50 * time.Millisecond)
		slowMu.Lock()
		defer slowMu.Unlock()
		return append([]core.Value(nil), inner()...)
	}
	c := NewCollector(s, slow, 2*time.Millisecond)
	c.Start()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.SampleOnce() }()
	}
	time.Sleep(10 * time.Millisecond) // loop is mid-pull

	done := make(chan struct{})
	go func() { c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop deadlocked against in-flight samples")
	}
	wg.Wait()
	c.Stop() // idempotent after the fact
}
