package taskrt

import (
	"runtime"
	"testing"
	"time"
)

// TestIdleWorkerCatchesNextWave: a worker that runs out of work between
// two back-to-back waves searches for the next one instead of parking
// at once, so the wave's publish finds it awake. Without the spin every
// wave pays one park and one wake-up on the stealing worker. A host
// that deschedules a worker stretches a gap past the budget, so the
// bound must hold in one of several runs; the parent parked about once
// per wave in every run. It needs both CPUs: a host saturated by other
// processes fails it, as it fails the overhead-budget tests.
func TestIdleWorkerCatchesNextWave(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs for two workers to run at once")
	}
	if testing.Short() {
		t.Skip("timing measurement; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector stretches the gap between waves past the spin budget")
	}
	const waves, width, runs = 200, 256, 10
	rt := newTestRuntime(t, 2)
	fns := make([]func() int, width)
	for i := range fns {
		fns[i] = func() int { busySpin(time.Microsecond); return 0 }
	}
	parks := func() (n int64) {
		for _, w := range rt.workers {
			n += w.metrics.parks.Load()
		}
		return n
	}
	var got []int64
	for len(got) < runs {
		var n int64
		AsyncF(rt, func() int {
			before := parks()
			for i := 0; i < waves; i++ {
				fs := AsyncBatch(rt, fns)
				WaitAllOf(fs)
				ReleaseAll(fs)
			}
			n = parks() - before
			return 0
		}).Get()
		got = append(got, n)
		if float64(n) < 0.1*waves {
			t.Logf("%d parks over %d waves (runs: %v)", n, waves, got)
			return
		}
	}
	t.Fatalf("parks over %d waves in %d runs: %v, want < %.0f (0.1 per wave) in one", waves, runs, got, 0.1*waves)
}

// TestSpinIsIdleAndBounded: the search before a park is booked as idle
// time, not overhead, and spends its budget once per idle episode.
func TestSpinIsIdleAndBounded(t *testing.T) {
	t.Run("idle-runtime", func(t *testing.T) {
		rt, reg := newInstrumentedRuntime(t, 2)
		overhead := func() time.Duration {
			v, err := reg.Evaluate("/threads{locality#0/total}/time/cumulative-overhead", false)
			if err != nil {
				t.Fatal(err)
			}
			return time.Duration(v.Raw)
		}
		// Before its first park a worker has booked nothing but that
		// first search: the failed find, the spin and the step to the
		// park, measured on its own clock so a late goroutine start on
		// a busy host does not count.
		deadline := time.Now().Add(5 * time.Second)
		for _, w := range rt.workers {
			for w.metrics.parkedSince.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("worker %d never parked", w.id)
				}
				runtime.Gosched()
			}
			m := &w.metrics
			if searched := time.Duration(m.idleNs.Load() + m.overheadNs.Load()); searched >= 5*time.Millisecond {
				t.Fatalf("worker %d searched %v before parking, want < 5ms", w.id, searched)
			}
		}
		before := overhead()
		time.Sleep(50 * time.Millisecond)
		if got := overhead() - before; got >= time.Millisecond {
			t.Fatalf("idle runtime booked %v of overhead over 50ms, want < 1ms", got)
		}
	})

	t.Run("waiting-worker", func(t *testing.T) {
		const hold = 20 * time.Millisecond
		rt := newTestRuntime(t, 2)
		started, gate := make(chan struct{}), make(chan struct{})
		child := AsyncF(rt, func() int {
			close(started)
			<-gate
			return 0
		})
		<-started
		// The waiter lands on the other worker, the child's worker being
		// busy, and finds nothing to help with for the whole wait, which
		// lasts at least hold however late the waiter starts.
		var idle, overhead, spins int64
		AsyncF(rt, func() int {
			m := &rt.currentWorker().metrics
			i0, o0, s0 := m.idleAt(nanotime()), m.overheadNs.Load(), m.spins.Load()
			time.AfterFunc(hold, func() { close(gate) })
			child.Wait()
			idle = m.idleAt(nanotime()) - i0
			overhead = m.overheadNs.Load() - o0
			spins = m.spins.Load() - s0
			return 0
		}).Get()
		t.Logf("wait booked idle %v, overhead %v, %d spin(s)",
			time.Duration(idle), time.Duration(overhead), spins)
		if time.Duration(idle) < hold*9/10 {
			t.Errorf("wait booked %v of idle, want >= %v", time.Duration(idle), hold*9/10)
		}
		if time.Duration(overhead) >= time.Millisecond {
			t.Errorf("wait booked %v of overhead, want < 1ms", time.Duration(overhead))
		}
		if spins > 1 {
			t.Errorf("one idle wait spun %d times, want the budget spent once", spins)
		}
	})
}
