package core_test

import (
	"fmt"

	"repro/internal/core"
)

// Counter names follow the HPX grammar; ParseName gives structured
// access and String round-trips exactly.
func ExampleParseName() {
	n, err := core.ParseName("/threads{locality#0/worker-thread#3}/time/average")
	if err != nil {
		panic(err)
	}
	fmt.Println(n.Object, n.Counter)
	fmt.Println(n.Instances[0], n.Instances[1])
	fmt.Println(n.TypeName())
	// Output:
	// threads time/average
	// locality#0 worker-thread#3
	// /threads/time/average
}

// The active set implements the paper's measurement protocol: add the
// counters once, then evaluate-and-reset around every sample.
func ExampleRegistry_EvaluateActiveInto() {
	reg := core.NewRegistry()
	tasks := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	reg.MustRegister(tasks)
	if _, err := reg.AddActive("/threads{locality#0/total}/count/cumulative"); err != nil {
		panic(err)
	}

	tasks.Add(30) // ... sample 1 runs ...
	for _, v := range reg.EvaluateActiveInto(nil, true) {
		fmt.Printf("sample 1: %d\n", v.Raw)
	}
	tasks.Add(20) // ... sample 2 runs ...
	for _, v := range reg.EvaluateActiveInto(nil, true) {
		fmt.Printf("sample 2: %d\n", v.Raw)
	}
	// Output:
	// sample 1: 30
	// sample 2: 20
}

// Arithmetic meta counters derive ratios from other counters with no
// special support from the producers.
func ExampleRegistry_arithmetics() {
	reg := core.NewRegistry()
	mk := func(name string, v int64) {
		c := core.NewRawCounter(
			core.Name{Object: "threads", Counter: name}.
				WithInstances(core.LocalityInstance(0, "total", -1)...),
			core.Info{TypeName: "/threads/" + name})
		reg.MustRegister(c)
		c.Set(v)
	}
	mk("time/cumulative-overhead", 250)
	mk("time/cumulative", 1000)

	ratio, err := reg.Evaluate(
		"/arithmetics/divide@/threads{locality#0/total}/time/cumulative-overhead,"+
			"/threads{locality#0/total}/time/cumulative", false)
	if err != nil {
		panic(err)
	}
	fmt.Printf("overhead share: %.2f\n", ratio.Float64())
	// Output: overhead share: 0.25
}
