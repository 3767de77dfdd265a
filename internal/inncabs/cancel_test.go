package inncabs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/apex"
	"repro/internal/taskrt"
)

// hugeBenchmarks are the kernels whose Huge run outlasts the warm-up.
var hugeBenchmarks = []string{"uts", "health", "sparselu", "sort", "round"}

// liveCtx returns a cancellable context that stays alive for the test,
// so RunCtx takes its bounded path rather than the unbounded shortcut.
func liveCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

// TestCancelRunCtxMatchesReference: on HPX with a live cancellable
// context, every kernel runs inside one root task and must compute
// exactly the reference checksum — the scope must not change the
// arithmetic.
func TestCancelRunCtxMatchesReference(t *testing.T) {
	rt := hpxTestRuntime(t, 4)
	ctx := liveCtx(t)
	for _, b := range All() {
		got, err := b.RunCtx(ctx, rt, Test)
		if err != nil {
			t.Fatalf("%s: RunCtx error on live context: %v", b.Name, err)
		}
		if want := b.RefChecksum(Test); got != want {
			t.Fatalf("%s: RunCtx checksum %d, want %d", b.Name, got, want)
		}
	}
}

// TestCancelRunCtxSequentialFallback: a runtime without cancellation
// scopes runs the kernel in the abandon-at-deadline goroutine, and a
// live context still yields the reference checksum.
func TestCancelRunCtxSequentialFallback(t *testing.T) {
	b, err := ByName("uts")
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.RunCtx(liveCtx(t), sequentialRuntime{}, Test)
	if err != nil || got != b.RefChecksum(Test) {
		t.Fatalf("sequential RunCtx = %d, %v; want %d", got, err, b.RefChecksum(Test))
	}
}

// TestCancelHugeRunStopsQuickly is the acceptance test: cancelling the
// root context of a Huge run must return control within the latency
// budget with the context's error, with the dropped spawn-storm tasks
// accounted in the runtime's cancelled counter.
func TestCancelHugeRunStopsQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("Huge cancellation runs are not -short material")
	}
	// The 100 ms budget assumes production scheduling; the race detector
	// serializes everything, so give it headroom.
	limit := 100 * time.Millisecond
	if raceEnabled {
		limit = 500 * time.Millisecond
	}
	for _, name := range hugeBenchmarks {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			trt := taskrt.New(taskrt.WithWorkers(4))
			defer trt.Shutdown()
			rt := NewHPX(trt)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := b.RunCtx(ctx, rt, Huge)
				done <- err
			}()
			time.Sleep(100 * time.Millisecond) // let the spawn storm build
			cancel()
			cancelAt := time.Now()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled Huge run returned %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled Huge run never returned")
			}
			elapsed := time.Since(cancelAt)
			if elapsed > limit {
				t.Fatalf("run stopped %v after cancel, budget %v", elapsed, limit)
			}
			t.Logf("stopped %v after cancel, %d task(s) dropped", elapsed, trt.Cancelled())
			if name != "sparselu" && trt.Cancelled() == 0 {
				// The other kernels keep deep spawn queues; some tasks
				// must have been dropped at dispatch. (sparselu joins
				// each phase, so its queue may legitimately be empty at
				// cancel time.)
				t.Error("no dropped-at-dispatch tasks in the cancelled counter")
			}
		})
	}
}

// TestWatchdogCleanInncabsRun: the satellite false-positive check — a
// clean Medium fib and sort run under an aggressively sampling watchdog
// must raise zero health events.
func TestWatchdogCleanInncabsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("Medium-size runs are not -short material")
	}
	trt := taskrt.New(taskrt.WithWorkers(4))
	defer trt.Shutdown()
	var mu sync.Mutex
	var events []taskrt.HealthEvent
	cfg := taskrt.WatchdogConfig{
		Interval: 5 * time.Millisecond, // default 1s thresholds
		OnEvent: func(ev taskrt.HealthEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	if raceEnabled {
		// The race detector slows the run ~10x, so the fork/join roots
		// legitimately outlive the production stall threshold.
		cfg.StallThreshold = time.Minute
	}
	engine := apex.NewEngine()
	if err := engine.Add(trt.Watchdog(cfg)); err != nil {
		t.Fatal(err)
	}
	engine.Start()
	defer engine.Stop()
	rt := NewHPX(trt)
	for _, name := range []string{"fib", "sort"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := b.Run(rt, Medium), b.RefChecksum(Medium); got != want {
			t.Fatalf("%s Medium checksum %d, want %d", name, got, want)
		}
	}
	engine.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 0 {
		t.Fatalf("clean Medium fib+sort run raised %d health events: %v", len(events), events)
	}
}
