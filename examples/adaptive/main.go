// Adaptive: the paper's §VII outlook made concrete. An APEX-style policy
// engine samples the runtime's idle-rate counter and throttles the
// number of active workers when the machine idles, releasing them again
// when load returns — measurement driving runtime adaptation through
// the same counter framework the measurements come from.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
	"repro/internal/inncabs"
	"repro/internal/taskrt"
)

func main() {
	rt := taskrt.New(taskrt.WithWorkers(8))
	defer rt.Shutdown()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		log.Fatal(err)
	}

	// Throttle above 80% idle, grow below 10% idle (the idle-rate
	// counter reports 0.01% units: 8000 = 80% idle).
	policy, err := rt.IdleThrottle(reg, 50*time.Millisecond, 1000, 8000)
	if err != nil {
		log.Fatal(err)
	}
	engine := apex.NewEngine()
	if err := engine.Add(policy); err != nil {
		log.Fatal(err)
	}
	engine.Start()
	defer engine.Stop()

	idleName := "/threads{locality#0/total}/idle-rate"
	report := func(phase string) {
		v, err := reg.Evaluate(idleName, true) // evaluate-and-reset the window
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s idle-rate %5.1f%%  active workers %d/%d\n",
			phase, v.Float64()/100, rt.ConcurrencyLimit(), rt.NumWorkers())
	}

	// Phase 1: idle. The policy steps the worker count down.
	time.Sleep(400 * time.Millisecond)
	report("idle")

	// Phase 2: sustained load. The policy steps the workers back up.
	sort, err := inncabs.ByName("sort")
	if err != nil {
		log.Fatal(err)
	}
	hrt := inncabs.NewHPX(rt)
	for i := 0; i < 8; i++ {
		sort.Run(hrt, inncabs.Small)
		time.Sleep(20 * time.Millisecond)
	}
	report("loaded")

	fmt.Println("\npolicy actions:")
	for _, ev := range engine.Events() {
		fmt.Printf("  %s  %s: %s\n", ev.Time.Format("15:04:05.000"), ev.Policy, ev.Action)
	}
	if n := len(engine.Events()); n == 0 {
		fmt.Println("  (none)")
	} else {
		fmt.Printf("  %d adaptation(s) total\n", n)
	}
}
