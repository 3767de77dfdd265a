package taskrt_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/taskrt"
)

// The basic fork/join pattern: spawn, compute, join.
func ExampleAsyncF() {
	rt := taskrt.New(taskrt.WithWorkers(2))
	defer rt.Shutdown()

	future := taskrt.AsyncF(rt, func() int { return 6 * 7 })
	fmt.Println(future.Get())
	// Output: 42
}

// Launch policies mirror HPX: Sync and Fork run at the spawn point,
// Deferred runs at the first Get.
func ExampleSpawn() {
	rt := taskrt.New(taskrt.WithWorkers(2))
	defer rt.Shutdown()

	sync := taskrt.Spawn(rt, taskrt.Sync, func() string { return "ran eagerly" })
	fmt.Println(sync.Ready(), sync.Get())

	deferred := taskrt.Spawn(rt, taskrt.Deferred, func() string { return "ran lazily" })
	fmt.Println(deferred.Ready())
	fmt.Println(deferred.Get())
	// Output:
	// true ran eagerly
	// false
	// ran lazily
}

// The runtime's counters register into a core.Registry and are read by
// hierarchical name — the paper's central mechanism.
func ExampleRuntime_RegisterCounters() {
	rt := taskrt.New(taskrt.WithWorkers(2))
	defer rt.Shutdown()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		panic(err)
	}

	fs := make([]*taskrt.Future[int], 10)
	for i := range fs {
		fs[i] = taskrt.AsyncF(rt, func() int { return 0 })
	}
	taskrt.WaitAllOf(fs)
	// A worker publishes its counters in blocks, after each task's
	// future completes; once the runtime has shut down they are exact.
	rt.Shutdown()

	v, err := reg.Evaluate("/threads{locality#0/total}/count/cumulative", false)
	if err != nil {
		panic(err)
	}
	fmt.Printf("tasks executed: %d\n", v.Raw)
	// Output: tasks executed: 10
}
