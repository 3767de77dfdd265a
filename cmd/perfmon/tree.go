package main

// -tree: watch a fleet through the hierarchical aggregation overlay
// instead of polling localities one by one. perfmon builds a simulated
// fleet (-fleet localities of simulator-derived counters, -tree-wire of
// the deepest leaves attached through real loopback parcel servers),
// ticks the overlay at -interval, and reads ONLY the root — whose cost
// is bounded by its fanout, not the fleet size. The folded view is
// served through the same exports as remote sampling: /metrics and
// /series carry the @sum/@avg/@min/@max/@count digests and per-subtree
// freshness series, and /tree dumps the overlay topology as JSON.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/agas/tree"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// treeOptions carries the -tree flag group.
type treeOptions struct {
	fleet    int
	fanout   int
	wire     int
	interval time.Duration
	n        int
	httpAddr string
	deadline time.Duration
}

// runTree is the -tree entry point: build the fleet, tick it, publish
// the root's fold.
func runTree(opts treeOptions, stdout, stderr io.Writer) int {
	f, err := tree.NewFleet(tree.FleetConfig{
		N:          opts.fleet,
		Fanout:     opts.fanout,
		WireLeaves: opts.wire,
		Interval:   opts.interval,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfmon:", err)
		return 1
	}
	defer f.Close()

	sampler := telemetry.NewSampler(0)
	if opts.httpAddr != "" {
		srv, bound, err := telemetry.Serve(opts.httpAddr, telemetry.Handler(sampler,
			telemetry.WithJSON("/tree", func() (any, error) {
				// The top three levels are what an operator can read; the
				// full 10k-rank dump belongs in counterls -tree.
				return f.Topology(time.Now(), 3), nil
			})))
		if err != nil {
			fmt.Fprintln(stderr, "perfmon:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "perfmon: serving folded telemetry on http://%s (/metrics, /series, /tree)\n", bound)
	}

	ctx := context.Background()
	if opts.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.deadline)
		defer cancel()
	}

	// Each collector sample is one overlay tick, read at the root only.
	var (
		ticks   int
		tickErr error
		vals    []core.Value
		done    = make(chan struct{})
		finish  = sync.OnceFunc(func() { close(done) })
	)
	col := telemetry.NewCollector(sampler, func() []core.Value {
		if ticks >= opts.n || tickErr != nil || ctx.Err() != nil {
			finish()
			return nil
		}
		begin := time.Now()
		snap, err := f.Tick(ctx)
		if err != nil {
			tickErr = err
			finish()
			return nil
		}
		rootNs := time.Since(begin)
		ticks++
		vals = f.Root().ExportValues(vals[:0])
		fmt.Fprintf(stdout, "%s  fold gen %d: %d localities (%d stale), depth %d, partial=%v, reparents %d, root tick %v\n",
			snap.Time.Format(time.RFC3339), snap.Gen, snap.Localities, snap.StaleLocalities,
			snap.Depth, snap.Partial, snap.Reparents, rootNs.Round(time.Microsecond))
		if ticks == opts.n {
			finish()
		}
		return vals
	}, opts.interval)
	col.Start()
	select {
	case <-done:
	case <-ctx.Done():
	}
	col.Stop()
	if tickErr != nil {
		fmt.Fprintln(stderr, "perfmon: tick:", tickErr)
		return 1
	}
	if ticks < opts.n {
		fmt.Fprintf(stderr, "perfmon: run deadline reached after %d/%d ticks: %v\n", ticks, opts.n, ctx.Err())
		return 1
	}

	// Final fold, in full: one line per digest entry so a bare
	// `perfmon -tree` answers "how is the fleet doing" without curl.
	snap, err := f.Root().TreeSnapshot()
	if err != nil {
		fmt.Fprintln(stderr, "perfmon:", err)
		return 1
	}
	for _, e := range snap.Entries {
		line := fmt.Sprintf("%-55s sum=%g avg=%g min=%g max=%g count=%d",
			e.Key, e.Sum, e.Sum/float64(e.Count), e.Min, e.Max, e.Count)
		if e.Stale > 0 {
			line += fmt.Sprintf(" stale=%d", e.Stale)
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}
