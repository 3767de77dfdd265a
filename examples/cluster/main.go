// Cluster: local and remote execution under one model. A "compute
// node" locality runs a task pool and exposes a fib action over the
// parcel layer; the "driver" locality splits the same computation
// between its own pool (taskrt.AsyncF) and the remote node
// (parcel.SpawnOn, under a deadline) — and afterwards reads both
// localities' task counters through one AGAS resolver, routed purely by
// the locality#N prefix in the counter names. The paper's unified
// parallel/distributed API and location-transparent counters, in ~100
// lines.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/taskrt"
)

func fibOn(rt *taskrt.Runtime, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	if n < 12 {
		return fibOn(rt, n-1) + fibOn(rt, n-2)
	}
	l := taskrt.AsyncF(rt, func() int64 { return fibOn(rt, n-1) })
	return fibOn(rt, n-2) + l.Get()
}

func main() {
	// --- Locality 1: the remote compute node. ---
	node := agas.NewLocality(1, "compute-node")
	nodeRT := taskrt.New(taskrt.WithWorkers(2), taskrt.WithLocality(1))
	defer nodeRT.Shutdown()
	if err := nodeRT.RegisterCounters(node.Registry()); err != nil {
		log.Fatal(err)
	}
	srv, err := parcel.Serve("127.0.0.1:0", node.Registry(), 1)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	actions := parcel.NewActionMap()
	if err := parcel.RegisterAction(actions, "fib", func(n int) (int64, error) {
		return fibOn(nodeRT, n), nil
	}); err != nil {
		log.Fatal(err)
	}
	srv.WithActions(actions)

	// --- Locality 0: the driver. ---
	driver := agas.NewLocality(0, "driver")
	driverRT := taskrt.New(taskrt.WithWorkers(2), taskrt.WithLocality(0))
	defer driverRT.Shutdown()
	if err := driverRT.RegisterCounters(driver.Registry()); err != nil {
		log.Fatal(err)
	}
	cli, err := parcel.Dial(srv.Addr(), driver.Registry(), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	resolver := agas.NewResolver()
	if err := resolver.Bind(driver); err != nil {
		log.Fatal(err)
	}
	if err := resolver.BindRemote(1, cli); err != nil {
		log.Fatal(err)
	}

	// Split fib(30) = fib(29) + fib(28): one term remote, one local.
	// Same future-shaped API either way. The remote half rides the spawn
	// plane: the deadline ships with the request, a retry after a lost
	// response cannot run fib twice, and the wait is bounded.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	remote := parcel.SpawnOn[int, int64](ctx, cli, "fib", 29)
	local := taskrt.AsyncF(driverRT, func() int64 { return fibOn(driverRT, 28) })

	rv, err := remote.GetContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	total := rv + local.Get()
	fmt.Printf("fib(30) = %d  (fib(29) on locality 1 + fib(28) on locality 0)\n", total)

	// One resolver, two localities, identical query syntax.
	for _, name := range []string{
		"/threads{locality#0/total}/count/cumulative",
		"/threads{locality#1/total}/count/cumulative",
		"/parcels{locality#1/total}/count/received",
	} {
		v, err := resolver.EvaluateCounter(name, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-55s = %d\n", name, v.Raw)
	}
}
