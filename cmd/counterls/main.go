// Command counterls lists the performance-counter types a fully
// provisioned locality exposes: the task runtime's thread-manager
// counters, the runtime memory/uptime counters, the baseline's
// stdthreads counters, the AGAS and parcel counters, and the
// statistics/arithmetics meta counter families. The modelled PAPI
// hardware counters (/papi/OFFCORE_REQUESTS) come from a simulated run
// registered as locality 1 (sim.Result.RegisterCounters); a type the
// live runtime also provides keeps the live description.
//
// With -discover PATTERN it expands a (wildcarded) counter name into the
// matching concrete instances instead.
//
// With -tree it builds a small simulated aggregation overlay (-tree-n
// localities, arity -tree-fanout), runs one fold round and prints the
// resulting topology: every rank's depth, parent and attached children
// with per-subtree freshness — the operator's view of the structure
// behind /agas{...}/tree/* counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/agas"
	"repro/internal/agas/tree"
	"repro/internal/machine"
	"repro/internal/perfcli"
	"repro/internal/sim"
	"repro/internal/stdrt"
	"repro/internal/taskrt"
)

func main() {
	var (
		threads    = flag.Int("threads", 2, "worker threads of the sample runtime")
		discover   = flag.String("discover", "", "expand a counter pattern into matching instances")
		treeMode   = flag.Bool("tree", false, "print the topology of a simulated aggregation overlay")
		treeN      = flag.Int("tree-n", 21, "with -tree: number of simulated localities")
		treeFanout = flag.Int("tree-fanout", 4, "with -tree: overlay arity k")
	)
	flag.Parse()

	if *treeMode {
		f, err := tree.NewFleet(tree.FleetConfig{N: *treeN, Fanout: *treeFanout})
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if _, err := f.Tick(context.Background()); err != nil {
			fatal(err)
		}
		f.PrintTopology(os.Stdout, time.Now())
		return
	}

	loc := agas.NewLocality(0, "counterls")
	reg := loc.Registry()

	rt := taskrt.New(taskrt.WithWorkers(*threads))
	defer rt.Shutdown()
	if err := rt.RegisterCounters(reg); err != nil {
		fatal(err)
	}
	if err := stdrt.New().RegisterCounters(reg); err != nil {
		fatal(err)
	}
	res, err := sim.Run(sim.Config{Machine: machine.IvyBridge(), Cores: 1, Mode: sim.HPX},
		&sim.Graph{Label: "leaf", Root: sim.Leaf(1_000_000, 1<<20)})
	if err != nil {
		fatal(err)
	}
	if err := res.RegisterCounters(reg, 1); err != nil {
		fatal(err)
	}

	if *discover != "" {
		names, err := reg.Discover(*discover)
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n.String())
		}
		return
	}
	perfcli.ListTo(os.Stdout, reg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "counterls:", err)
	os.Exit(1)
}
