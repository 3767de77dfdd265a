package taskrt

import "testing"

func BenchmarkSpawnGet(b *testing.B) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	root := AsyncF(rt, func() int {
		for i := 0; i < b.N; i++ {
			f := AsyncF(rt, func() int { return 1 })
			f.Get()
		}
		return 0
	})
	root.Get()
}

// BenchmarkSpawnGetRelease is the allocation-free steady state: the
// future is recycled onto the worker's free list after each join.
func BenchmarkSpawnGetRelease(b *testing.B) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	root := AsyncF(rt, func() int {
		for i := 0; i < b.N; i++ {
			f := AsyncF(rt, func() int { return 1 })
			f.Get()
			f.Release()
		}
		return 0
	})
	root.Get()
	b.ReportAllocs()
}

// BenchmarkBatchSpawn measures the per-child cost of the batch spawn
// path: 256-wide waves published as one scheduler transaction, joined
// and recycled.
func BenchmarkBatchSpawn(b *testing.B) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	const wave = 256
	body := func() int { return 1 }
	fns := make([]func() int, wave)
	for i := range fns {
		fns[i] = body
	}
	root := AsyncF(rt, func() int {
		b.ResetTimer()
		for i := 0; i < b.N; i += wave {
			fs := AsyncBatch(rt, fns)
			WaitAllOf(fs)
			ReleaseAll(fs)
		}
		return 0
	})
	root.Get()
	b.ReportAllocs()
}

func BenchmarkGoroutineID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		goroutineID()
	}
}

func BenchmarkCurrentWorkerLookup(b *testing.B) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	for i := 0; i < b.N; i++ {
		rt.currentWorker()
	}
}
