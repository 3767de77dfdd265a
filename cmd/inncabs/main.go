// Command inncabs runs one benchmark of the ported Inncabs suite for
// real — on the lightweight task runtime or the thread-per-task
// baseline — with the paper's performance-counter command line attached.
//
// Usage:
//
//	inncabs -bench sort -runtime hpx -threads 4 \
//	    -print-counter '/threads{locality#0/total}/count/cumulative' \
//	    -print-counter '/threads{locality#0/total}/time/average'
//	inncabs -bench fib -runtime std
//	inncabs -list-benchmarks
//	inncabs -bench sort -list-counters
//
// The run verifies the benchmark's checksum against the sequential
// reference and reports the execution-time summary over the configured
// number of samples (the paper takes 20 and reports medians).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
	"repro/internal/inncabs"
	"repro/internal/parcel"
	"repro/internal/perfcli"
	"repro/internal/stats"
	"repro/internal/stdrt"
	"repro/internal/taskrt"
)

func main() {
	var (
		benchName = flag.String("bench", "fib", "benchmark name")
		rtName    = flag.String("runtime", "hpx", "runtime: hpx or std")
		threads   = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads (hpx runtime)")
		sizeStr   = flag.String("size", "small", "workload size: test, small, medium, paper, huge")
		samples   = flag.Int("samples", 3, "measurement samples (paper protocol: 20)")
		policyStr = flag.String("policy", "async", "launch policy: async, sync, fork, deferred, optional")
		adaptive  = flag.Bool("adaptive", false, "counter-driven adaptive inlining: run children inline when their estimated grain is below the runtime's measured spawn cost (hpx runtime; see /runtime{...}/grain/* counters)")
		listBench = flag.Bool("list-benchmarks", false, "list benchmarks and exit")
		all       = flag.Bool("all", false, "run and verify the whole suite, print a summary table")
		tracePath = flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the task schedule to this file (hpx runtime)")
		profile   = flag.Bool("profile", false, "trace the run and print its DAG profile: work, span (critical path), parallelism, top spawn sites (hpx runtime)")
		serveAddr = flag.String("serve", "", "serve the counter registry over parcel at this address for remote monitors (e.g. 127.0.0.1:7110)")
		deadline  = flag.Duration("deadline", 0, "cancel the measurement after this long (0 = unbounded); on the hpx runtime every benchmark stops at its next spawn or join and drains its running tasks before exit; std runs are abandoned")
		watchdog  = flag.Bool("watchdog", false, "run the runtime health watchdog and log events to stderr (hpx runtime)")

		httpAddr   = flag.String("http", "", "serve live telemetry over HTTP at this address (/metrics, /series, and /flight with -flight)")
		budgetPct  = flag.Float64("budget", 0, "sampling overhead budget, percent of one core (enables the self-regulating collector; 0 = off)")
		flightOn   = flag.Bool("flight", false, "arm the anomaly-triggered flight recorder, fed by the watchdog (hpx runtime)")
		flightDump = flag.String("flight-dump", "", "write the flight-recorder ring as JSON to this file at exit (implies -flight; \"-\" = stdout)")
		telemIval  = flag.Duration("telemetry-interval", 100*time.Millisecond, "base sampling interval for -http/-budget/-flight")
		stallThr   = flag.Duration("stall-threshold", 0, "watchdog stall threshold (0 = 1s default)")
		injStall   = flag.Duration("inject-stall", 0, "fault injection: run one extra task that sleeps this long, tripping the watchdog (hpx runtime; testing)")
	)
	opts := perfcli.Bind(flag.CommandLine)
	flag.Parse()

	// A task panic surfaces at the joining Get as a *taskrt.PanicError
	// carrying the panic value and the worker's stack at panic time —
	// report it as a diagnosis instead of an anonymous crash.
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*taskrt.PanicError)
			if !ok {
				panic(r)
			}
			fmt.Fprintf(os.Stderr, "inncabs: benchmark task panicked: %v\ntask stack:\n%s", pe.Value, pe.Stack)
			os.Exit(1)
		}
	}()

	if *listBench {
		for _, b := range inncabs.All() {
			fmt.Printf("%-10s %-22s sync=%-18s grain=%s (%.2f µs)\n",
				b.Name, b.Class, b.Sync, b.Granularity, b.PaperTaskUs)
		}
		return
	}
	var b *inncabs.Benchmark
	var err error
	if !*all {
		if b, err = inncabs.ByName(*benchName); err != nil {
			fatal(err)
		}
	}
	size, err := inncabs.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}
	policy, err := taskrt.ParsePolicy(*policyStr)
	if err != nil {
		fatal(err)
	}

	reg := core.NewRegistry()
	var rt inncabs.Runtime
	var trt *taskrt.Runtime
	switch *rtName {
	case "hpx":
		rtOpts := []taskrt.Option{taskrt.WithWorkers(*threads)}
		if *adaptive {
			rtOpts = append(rtOpts, taskrt.WithAdaptiveInlining())
		}
		trt = taskrt.New(rtOpts...)
		defer trt.Shutdown()
		if err := trt.RegisterCounters(reg); err != nil {
			fatal(err)
		}
		if *tracePath != "" || *profile {
			trt.EnableTracing(0)
			defer func() {
				trt.Shutdown() // publishes the events the workers still stage
				events, dropped := trt.TraceEvents()
				if *tracePath != "" {
					f, err := os.Create(*tracePath)
					if err != nil {
						fatal(err)
					}
					defer f.Close()
					if err := taskrt.WriteChromeTrace(f, events); err != nil {
						fatal(err)
					}
					fmt.Printf("trace: %d task events written to %s (%d dropped)\n",
						len(events), *tracePath, dropped)
				}
				if *profile {
					a := taskrt.AnalyzeTrace(events)
					fmt.Printf("\nDAG profile (%d events, %d dropped):\n%s",
						len(events), dropped, a.Summary(10))
				}
			}()
		}
		hrt := inncabs.NewHPX(trt)
		hrt.Policy = policy
		rt = hrt
	case "std":
		srt := stdrt.New()
		if err := srt.RegisterCounters(reg); err != nil {
			fatal(err)
		}
		rt = inncabs.NewStd(srt)
	default:
		fatal(fmt.Errorf("unknown runtime %q (hpx or std)", *rtName))
	}
	if trt == nil {
		if *watchdog || *flightOn || *injStall > 0 {
			fmt.Fprintln(os.Stderr, "inncabs: -watchdog/-flight/-inject-stall only apply to the hpx runtime; ignored")
		}
		if *tracePath != "" || *profile {
			fmt.Fprintln(os.Stderr, "inncabs: -trace/-profile only apply to the hpx runtime; ignored")
		}
	}
	if *serveAddr != "" {
		srv, err := parcel.Serve(*serveAddr, reg, 0)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "inncabs: serving counters on %s\n", srv.Addr())
	}

	session, err := opts.Start(reg)
	if err != nil {
		fatal(err)
	}
	if opts.ListCounters {
		return
	}

	// Live telemetry: budgeted sampling, flight recorder, HTTP export.
	plane, err := newTelemetryPlane(reg, telemetryOptions{
		HTTPAddr:  *httpAddr,
		BudgetPct: *budgetPct,
		Flight:    *flightOn && trt != nil,
		DumpPath:  *flightDump,
		Interval:  *telemIval,
		Stderr:    os.Stderr,
	})
	if err != nil {
		fatal(err)
	}
	defer plane.stop()

	// The watchdog runs when asked for, and whenever the flight recorder
	// is armed — health events are what trigger its bursts.
	if trt != nil && (*watchdog || (plane != nil && plane.flight != nil)) {
		engine := apex.NewEngine()
		_ = engine.Add(trt.Watchdog(taskrt.WatchdogConfig{
			StallThreshold: *stallThr,
			OnEvent: func(ev taskrt.HealthEvent) {
				fmt.Fprintf(os.Stderr, "inncabs: health: %s\n", ev)
				plane.trigger(ev.String())
			},
		}))
		engine.Start()
		defer engine.Stop()
	}

	// Fault injection: one extra task that sleeps past the stall
	// threshold, so smoke tests can assert the watchdog → flight-recorder
	// path end to end on a healthy benchmark.
	if *injStall > 0 && trt != nil {
		d := *injStall
		fmt.Fprintf(os.Stderr, "inncabs: fault injection: stalling one task for %v\n", d)
		stalled := taskrt.AsyncF(trt, func() int { time.Sleep(d); return 0 })
		defer stalled.Wait()
	}

	if *all {
		runSuite(rt, size, *samples)
		if session != nil {
			if err := session.Close(); err != nil {
				fatal(err)
			}
		}
		return
	}

	fmt.Printf("benchmark %s on %s, %s size, %d sample(s)\n", b.Name, rt.Name(), size, *samples)
	// The deadline clock starts here, bounding the measurement itself
	// rather than runtime setup.
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var checksum int64
	var times []float64
	var runErr error
	for i := 0; i < *samples; i++ {
		start := time.Now()
		checksum, runErr = b.RunCtx(ctx, rt, size)
		elapsed := time.Since(start)
		if runErr != nil {
			break
		}
		if session != nil {
			session.Sample() // the paper's evaluate-and-reset per sample
		}
		times = append(times, elapsed.Seconds())
	}
	if session != nil {
		if err := session.Close(); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "inncabs: run cancelled after %d complete sample(s): %v\n", len(times), runErr)
		if trt != nil {
			fmt.Fprintf(os.Stderr, "inncabs: tasks dropped at dispatch: %d\n", trt.Cancelled())
		}
		os.Exit(1)
	}
	status := "OK"
	// The sequential reference can cost as much as the run itself at the
	// big sizes, so it is computed only after the measurement finished.
	if want := b.RefChecksum(size); checksum != want {
		status = fmt.Sprintf("CHECKSUM MISMATCH (got %d want %d)", checksum, want)
		defer os.Exit(1)
	}
	fmt.Printf("verification: %s\n", status)
	fmt.Printf("execution time [s]: %s\n", stats.Summarize(times))
}

// runSuite executes every benchmark, verifying checksums, and prints a
// per-benchmark summary.
func runSuite(rt inncabs.Runtime, size inncabs.Size, samples int) {
	fmt.Printf("Inncabs suite on %s, %s size, %d sample(s) each\n\n", rt.Name(), size, samples)
	fmt.Printf("%-10s %-22s %-12s %-14s %s\n", "benchmark", "class", "verify", "median [s]", "spread [s]")
	failures := 0
	for _, b := range inncabs.All() {
		var checksum int64
		summary := stats.Repeat(samples, func() float64 {
			start := time.Now()
			checksum = b.Run(rt, size)
			return time.Since(start).Seconds()
		})
		verdict := "OK"
		if checksum != b.RefChecksum(size) {
			verdict = "MISMATCH"
			failures++
		}
		fmt.Printf("%-10s %-22s %-12s %-14.4f %.4f..%.4f\n",
			b.Name, b.Class, verdict, summary.Median, summary.Min, summary.Max)
	}
	if failures > 0 {
		fmt.Printf("\n%d benchmark(s) failed verification\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall benchmarks verified")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inncabs:", err)
	os.Exit(1)
}
