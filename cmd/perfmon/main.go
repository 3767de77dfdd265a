// Command perfmon attaches to a running application's parcel port and
// monitors its performance counters remotely — the paper's "any counter
// can be accessed remotely" demonstrated across processes.
//
// The monitor is built to outlive the thing it monitors misbehaving:
// every request carries a deadline (-timeout), idempotent requests are
// retried (-retries), and a sampling loop marks a failed sample as
// missed and keeps going — it exits non-zero only if every sample
// failed. With -stale (default on), samples taken while the target is
// unreachable report the last-known value tagged "stale".
//
// -counter is repeatable: K counters are bound once into a remote bulk
// set and every sample is then a single wire exchange (evaluate_bulk),
// not K round trips.
//
// Usage:
//
//	perfmon -addr 127.0.0.1:7110 -types
//	perfmon -addr 127.0.0.1:7110 -discover '/threads{locality#0/worker-thread#*}/time/average'
//	perfmon -addr 127.0.0.1:7110 -counter '/threads{locality#0/total}/idle-rate' -interval 1s -n 10
//	perfmon -addr 127.0.0.1:7110 -counter <a> -counter <b> -counter <c> -interval 1s -n 60
//	perfmon -addr 127.0.0.1:7110 -spawn compute -arg '{"n":32}' -deadline 5s
//	perfmon -tree -fleet 10000 -fanout 8 -n 5 -interval 1s -http 127.0.0.1:9090
//
// -tree switches from polling one target to watching a whole simulated
// fleet through the hierarchical aggregation overlay: only the root is
// read, so the per-tick monitoring cost is bounded by the fanout, not
// the fleet size. See docs/COUNTERS.md, "Aggregation trees".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
	"repro/internal/parcel"
	"repro/internal/perfcli"
	"repro/internal/telemetry"
)

// counterList is a repeatable -counter flag.
type counterList []string

func (c *counterList) String() string { return strings.Join(*c, ",") }

func (c *counterList) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7110", "parcel address of the target application")
		types    = fs.Bool("types", false, "list the remote counter types")
		discover = fs.String("discover", "", "expand a remote counter pattern")
		counters counterList
		interval = fs.Duration("interval", time.Second, "sampling interval with -n > 1")
		n        = fs.Int("n", 1, "number of samples")
		reset    = fs.Bool("reset", false, "evaluate-and-reset on each sample")
		timeout  = fs.Duration("timeout", 2*time.Second, "per-request deadline")
		retries  = fs.Int("retries", 2, "retries per failed idempotent request")
		stale    = fs.Bool("stale", true, "serve last-known values while the target is unreachable")
		deadline = fs.Duration("deadline", 0, "total run deadline for the sampling loop (0 = unbounded)")
		watchdog = fs.Duration("watchdog", 0, "warn when no sample has succeeded for this long (0 = off)")
		httpAddr = fs.String("http", "", "serve the sampled series over HTTP at this address (/metrics Prometheus text, /series JSON)")
		csvPath  = fs.String("csv", "", "append samples as CSV to this file (header row + one line per sample)")
		spawn    = fs.String("spawn", "", "run this remote action through the fault-tolerant spawn plane and print its JSON result")
		arg      = fs.String("arg", "", "JSON argument for -spawn")

		treeMode = fs.Bool("tree", false, "watch a simulated fleet through the hierarchical aggregation overlay (reads only the root; no -addr target needed)")
		fleetN   = fs.Int("fleet", 10000, "with -tree: number of simulated localities")
		fanout   = fs.Int("fanout", 8, "with -tree: overlay arity k")
		treeWire = fs.Int("tree-wire", 4, "with -tree: deepest leaves attached through real loopback parcel servers")

		budgetPct  = fs.Float64("budget", 0, "sampling overhead budget, percent of one core spent evaluating remote counters; the loop auto-stretches its interval to stay inside it (0 = off)")
		flightOn   = fs.Bool("flight", false, "arm the flight recorder: a watchdog stall episode flips the loop to high-rate capture over a pre-allocated ring (served at /flight with -http)")
		flightDump = fs.String("flight-dump", "", "write the flight-recorder ring as JSON to this file when the loop ends (implies -flight; \"-\" = stdout)")
	)
	fs.Var(&counters, "counter", "remote counter to read (repeatable; all sampled in one exchange)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *treeMode {
		// The overlay is its own target: no parcel dial, the root is in
		// this process (with -tree-wire leaves behind real loopback
		// servers underneath).
		return runTree(treeOptions{
			fleet: *fleetN, fanout: *fanout, wire: *treeWire,
			interval: *interval, n: *n, httpAddr: *httpAddr, deadline: *deadline,
		}, stdout, stderr)
	}

	opts := parcel.ClientOptions{
		Timeout:    *timeout,
		Retries:    *retries,
		ServeStale: *stale,
	}
	if len(counters) > 0 && *n > 1 {
		// A sampling monitor should re-probe a dead target at its own
		// cadence, not the breaker's generic cooldown — otherwise a
		// fast loop can run out before the breaker half-opens again.
		opts.BreakerCooldown = *interval
	}
	dialCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cli, err := parcel.DialContext(dialCtx, *addr, nil, 0, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfmon:", err)
		return 1
	}
	defer cli.Close()

	switch {
	case *types:
		infos, err := cli.Types()
		if err != nil {
			fmt.Fprintln(stderr, "perfmon:", err)
			return 1
		}
		for _, info := range infos {
			fmt.Fprintf(stdout, "%-55s %s\n", info.TypeName, info.HelpText)
		}
	case *discover != "":
		names, err := cli.Discover(*discover)
		if err != nil {
			fmt.Fprintln(stderr, "perfmon:", err)
			return 1
		}
		for _, name := range names {
			fmt.Fprintln(stdout, name)
		}
	case len(counters) > 0:
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		var fr *telemetry.FlightRecorder
		if *flightOn || *flightDump != "" {
			fr = telemetry.NewFlightRecorder()
		}
		sampler := telemetry.NewSampler(0)
		if *httpAddr != "" {
			var opts []telemetry.HandlerOption
			endpoints := "/metrics, /series"
			if fr != nil {
				opts = append(opts, telemetry.WithFlight(fr))
				endpoints += ", /flight"
			}
			srv, bound, err := telemetry.Serve(*httpAddr, telemetry.Handler(sampler, opts...))
			if err != nil {
				fmt.Fprintln(stderr, "perfmon:", err)
				return 1
			}
			defer srv.Close()
			fmt.Fprintf(stderr, "perfmon: serving telemetry on http://%s (%s)\n", bound, endpoints)
		}
		var csvw *perfcli.CSVWriter
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fmt.Fprintln(stderr, "perfmon:", err)
				return 1
			}
			defer f.Close()
			csvw = perfcli.NewCSVWriter(f)
			_ = csvw.Write() // the header now: a run with no good sample still leaves a CSV file
		}
		rc := sampleLoop(ctx, cli, sampler, stdout, stderr, csvw, counters, *reset, *n, *interval, *watchdog,
			*budgetPct, fr)
		if *flightDump != "" {
			if err := fr.DumpJSON(*flightDump, stdout); err != nil {
				fmt.Fprintln(stderr, "perfmon: flight dump:", err)
				if rc == 0 {
					rc = 1
				}
			}
		}
		return rc
	case *spawn != "":
		// The spawn plane: the key-deduped retry path means a dropped
		// response cannot double-run the action, -deadline ships as the
		// remote execution budget, and Ctrl-C style context ends cancel
		// the remote task best-effort.
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		var raw json.RawMessage
		if *arg != "" {
			if !json.Valid([]byte(*arg)) {
				fmt.Fprintf(stderr, "perfmon: -arg is not valid JSON: %s\n", *arg)
				return 2
			}
			raw = json.RawMessage(*arg)
		}
		res, err := cli.SpawnJSON(ctx, *spawn, raw)
		if err != nil {
			fmt.Fprintln(stderr, "perfmon:", err)
			return 1
		}
		if len(res) == 0 {
			res = json.RawMessage("null")
		}
		fmt.Fprintf(stdout, "%s\n", res)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// sampleLoop reads the counters n times, interval apart, on a
// telemetry.Collector feeding sampler. The counters are bound once into
// a remote bulk set, so each sample is one wire exchange regardless of
// how many counters are monitored. One failed sample is not fatal to
// the run — the monitor must never die with the application it
// observes — so errors are reported, the sample marked missed, and the
// loop continues; a sample counts as good when at least one counter
// answered (fresh or stale), and only a run where every sample failed
// exits non-zero. ctx bounds the whole loop (requests and the waits
// between them); a lapsed deadline stops the run with exit code 1. With
// watchdog > 0, one warning is printed per stall episode: when no
// sample has succeeded for that long, and again only after a recovery.
//
// With budgetPct > 0 the loop self-regulates: the wall time it spends
// on the wire is metered, and a BudgetController, run as a policy on an
// apex.Engine, stretches the interval whenever that cost exceeds the
// budget (a remote monitor has no tiers to demote, so rate is its only
// actuator). With a flight recorder, the collector records every
// sample in the ring, a watchdog stall episode triggers a high-rate
// burst, and burst rate overrides both the configured and the
// budget-stretched interval for the bounded burst window.
func sampleLoop(ctx context.Context, cli *parcel.Client, sampler *telemetry.Sampler, stdout, stderr io.Writer,
	csvw *perfcli.CSVWriter, counters []string, reset bool, n int, interval, watchdog time.Duration,
	budgetPct float64, fr *telemetry.FlightRecorder) int {
	set := cli.NewBulkSet(counters)
	var (
		col         *telemetry.Collector
		costNs      atomic.Int64
		taken, good int
		lastGood    = time.Now()
		stallWarned bool
		done        = make(chan struct{})
		finish      = sync.OnceFunc(func() { close(done) })
	)
	miss := func(why string) {
		fmt.Fprintf(stderr, "perfmon: sample %d/%d missed: %s\n", taken, n, why)
		if watchdog > 0 && !stallWarned && time.Since(lastGood) >= watchdog {
			fmt.Fprintf(stderr, "perfmon: watchdog: no successful sample for %v\n",
				time.Since(lastGood).Round(time.Millisecond))
			stallWarned = true
			if col.TriggerFlight("watchdog: sample stall") {
				fmt.Fprintln(stderr, "perfmon: flight recorder bursting")
			}
		}
	}
	// sample is the collector's Source. The collector records what it
	// returns in the flight ring and feeds the valid values to sampler.
	sample := func() []core.Value {
		if taken >= n || ctx.Err() != nil {
			col.EnableFlight(nil) // the run is over: a tick racing Stop records nothing
			finish()
			return nil
		}
		taken++
		if taken == n {
			defer finish()
		}
		evalStart := time.Now()
		vals, err := set.EvaluateContext(ctx, reset)
		costNs.Add(time.Since(evalStart).Nanoseconds())
		if err != nil {
			miss(err.Error())
			return vals
		}
		ok := 0
		for _, v := range vals {
			if !v.Valid() && v.Status != core.StatusStale {
				fmt.Fprintf(stderr, "perfmon: sample %d/%d: %s unavailable (%s)\n",
					taken, n, v.Name, v.Status)
				continue
			}
			ok++
			fmt.Fprintf(stdout, "%s  %s = %g (count %d, %s)\n",
				v.Time.Format(time.RFC3339), v.Name, v.Float64(), v.Count, v.Status)
			if csvw != nil {
				_ = csvw.Write(v) // a full disk must not stop the monitor; stdout still has the sample
			}
		}
		if ok == 0 {
			miss("no counter answered")
			return vals
		}
		good++
		lastGood = time.Now()
		stallWarned = false
		return vals
	}
	col = telemetry.NewCollector(sampler, sample, interval)
	col.EnableFlight(fr)
	control := apex.NewEngine()
	if budgetPct > 0 {
		budget := telemetry.Budget{Fraction: budgetPct / 100, Window: time.Second}
		bc := telemetry.NewBudgetController(telemetry.BudgetControllerConfig{
			Budget:       budget,
			BaseInterval: col.Interval(),
			Cost:         costNs.Load,
			SetInterval: func(d time.Duration) {
				col.SetInterval(d)
				fmt.Fprintf(stderr, "perfmon: budget: sampling interval -> %v\n", d)
			},
		})
		// Stepped at half the window, as NewBudgetedCollector steps its
		// own: a full window is always seen within one period of elapsing.
		_ = control.Add(apex.Policy{Name: "perfmon-budget", Period: budget.Window / 2, Step: bc.Tick})
	}
	control.Start()
	col.Start()
	select {
	case <-done:
	case <-ctx.Done():
	}
	control.Stop()
	col.Stop()
	if taken < n {
		fmt.Fprintf(stderr, "perfmon: run deadline reached after %d/%d samples: %v\n", taken, n, ctx.Err())
		return 1
	}
	if good == 0 {
		fmt.Fprintf(stderr, "perfmon: all %d samples failed\n", n)
		return 1
	}
	if missed := n - good; missed > 0 {
		fmt.Fprintf(stderr, "perfmon: %d/%d samples missed\n", missed, n)
	}
	return 0
}
