package stdrt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSpawnBasic(t *testing.T) {
	rt := New()
	f := Spawn(rt, func() int { return 42 })
	if got := f.Get(); got != 42 {
		t.Fatalf("Get = %d", got)
	}
	if rt.Launched() != 1 {
		t.Fatalf("launched = %d", rt.Launched())
	}
	if rt.Live() != 0 {
		t.Fatalf("live after completion = %d", rt.Live())
	}
}

func TestSpawnManyConcurrent(t *testing.T) {
	rt := New()
	const n = 500
	var ran atomic.Int64
	block := make(chan struct{})
	fs := make([]*Future[int], n)
	for i := range fs {
		fs[i] = Spawn(rt, func() int {
			ran.Add(1)
			<-block
			return 1
		})
	}
	// Every task has its own thread: all should be live concurrently.
	deadline := time.After(5 * time.Second)
	for ran.Load() != n {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d tasks started concurrently", ran.Load(), n)
		case <-time.After(time.Millisecond):
		}
	}
	if rt.Live() != n || rt.Peak() < n {
		t.Fatalf("live = %d peak = %d", rt.Live(), rt.Peak())
	}
	close(block)
	for _, f := range fs {
		f.Get()
	}
	if rt.Live() != 0 {
		t.Fatalf("live after join = %d", rt.Live())
	}
}

func TestResourceExhaustion(t *testing.T) {
	// A tiny memory limit: the 4th live thread must fail, reproducing
	// the paper's pthread-exhaustion aborts.
	rt := New()
	rt.memoryLimit = 3 * stackBytes
	block := make(chan struct{})
	var ok []*Future[int]
	for i := 0; i < 3; i++ {
		f := Spawn(rt, func() int { <-block; return 0 })
		if f.Err() != nil {
			t.Fatalf("launch %d failed early: %v", i, f.Err())
		}
		ok = append(ok, f)
	}
	// Give the three threads time to start.
	time.Sleep(5 * time.Millisecond)
	bad := Spawn(rt, func() int { return 0 })
	if bad.Err() == nil {
		t.Fatal("4th launch did not fail")
	}
	if !errors.Is(bad.Err(), ErrResourcesExhausted) {
		t.Fatalf("err = %v", bad.Err())
	}
	if rt.Failed() != 1 {
		t.Fatalf("failed = %d", rt.Failed())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Get on failed launch did not panic")
			}
		}()
		bad.Get()
	}()
	close(block)
	for _, f := range ok {
		f.Get()
	}
	// After the join, capacity is available again.
	if f := Spawn(rt, func() int { return 5 }); f.Get() != 5 {
		t.Fatal("post-drain launch failed")
	}
}

func TestPanicPropagation(t *testing.T) {
	rt := New()
	f := Spawn(rt, func() int { panic("task-panic") })
	defer func() {
		if r := recover(); r != "task-panic" {
			t.Fatalf("recovered %v", r)
		}
	}()
	f.Get()
}

func TestWaitAndReady(t *testing.T) {
	rt := New()
	release := make(chan struct{})
	f := Spawn(rt, func() int { <-release; return 1 })
	if f.Ready() {
		t.Fatal("ready before completion")
	}
	close(release)
	f.Wait()
	if !f.Ready() {
		t.Fatal("not ready after Wait")
	}
}

func TestCounters(t *testing.T) {
	rt := New()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		t.Fatalf("RegisterCounters: %v", err)
	}
	block := make(chan struct{})
	fs := make([]*Future[int], 4)
	for i := range fs {
		fs[i] = Spawn(rt, func() int { <-block; return 0 })
	}
	time.Sleep(2 * time.Millisecond)
	v, err := reg.Evaluate("/stdthreads{locality#0/total}/count/live", false)
	if err != nil || v.Raw != 4 {
		t.Fatalf("live counter = %+v (%v)", v, err)
	}
	v, _ = reg.Evaluate("/stdthreads{locality#0/total}/memory/stack-reserved", false)
	if v.Raw != 4*(8<<20) {
		t.Fatalf("stack-reserved = %d", v.Raw)
	}
	close(block)
	for _, f := range fs {
		f.Get()
	}
	v, _ = reg.Evaluate("/stdthreads{locality#0/total}/count/peak", false)
	if v.Raw < 4 {
		t.Fatalf("peak = %d", v.Raw)
	}
	v, _ = reg.Evaluate("/stdthreads{locality#0/total}/count/launched", true)
	if v.Raw != 4 {
		t.Fatalf("launched = %d", v.Raw)
	}
	v, _ = reg.Evaluate("/stdthreads{locality#0/total}/count/launched", false)
	if v.Raw != 0 {
		t.Fatalf("launched after reset = %d", v.Raw)
	}
}

func TestDefaultModelMatchesPaperCeiling(t *testing.T) {
	ceiling := New().memoryLimit / stackBytes
	// The paper observes failures at 80k–97k live pthreads.
	if ceiling < 80000 || ceiling > 97000 {
		t.Fatalf("default thread ceiling %d outside the paper's 80k–97k window", ceiling)
	}
}
