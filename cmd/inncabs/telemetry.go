package main

// Live telemetry wiring for inncabs: -http serves /metrics, /series and
// (with -flight) /flight while the benchmark runs; -budget puts the
// sampling loop under a closed-loop overhead budget; -flight arms the
// anomaly-triggered flight recorder, fed by the runtime watchdog.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// telemetryOptions is the parsed -http/-budget/-flight flag set.
type telemetryOptions struct {
	HTTPAddr  string
	BudgetPct float64 // percent of one core; 0 disables the budget loop
	Flight    bool
	DumpPath  string // write the flight ring as JSON here at exit; "-" = stdout
	Interval  time.Duration
	Stderr    io.Writer
}

func (o telemetryOptions) enabled() bool {
	return o.HTTPAddr != "" || o.BudgetPct > 0 || o.Flight || o.DumpPath != ""
}

// telemetryPlane is the assembled live export: one sampler, a (possibly
// budgeted) collector feeding it, an optional flight recorder riding
// the collector, and an optional HTTP server over all of it.
type telemetryPlane struct {
	sampler  *telemetry.Sampler
	col      *telemetry.Collector
	budgeted *telemetry.BudgetedCollector
	flight   *telemetry.FlightRecorder
	srv      *http.Server
	dumpPath string
	stderr   io.Writer
}

// defaultActivePatterns seeds the active set when the user selected no
// counters: a core set across tiers, so a budget squeeze has debug
// counters to demote and critical ones to protect. Patterns that don't
// resolve on this runtime are skipped.
var defaultActivePatterns = []string{
	"/threads{locality#0/total}/count/cumulative",
	"/threads{locality#0/total}/time/average",
	"/threads{locality#0/total}/idle-rate",
	"/threads{locality#0/worker-thread#*}/count/cumulative",
	"/threads{locality#0/worker-thread#*}/time/average",
	"/runtime{locality#0/total}/health/events",
	"/runtime{locality#0/total}/health/callback-errors",
	"/runtime{locality#0/total}/count/cancelled",
	"/counters{locality#0/total}/cost/eval-ns",
	"/counters{locality#0/total}/cost/per-counter",
}

// newTelemetryPlane builds and starts the plane, or returns (nil, nil)
// when no telemetry flag is set.
func newTelemetryPlane(reg *core.Registry, o telemetryOptions) (*telemetryPlane, error) {
	if !o.enabled() {
		return nil, nil
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	if len(reg.Active()) == 0 {
		for _, p := range defaultActivePatterns {
			_, _ = reg.AddActive(p)
		}
	}
	p := &telemetryPlane{
		sampler:  telemetry.NewSampler(0),
		dumpPath: o.DumpPath,
		stderr:   o.Stderr,
	}
	if o.BudgetPct > 0 {
		p.budgeted = telemetry.NewBudgetedCollector(p.sampler, reg, o.Interval,
			telemetry.Budget{Fraction: o.BudgetPct / 100}, false)
		p.budgeted.Controller.RegisterCounters(reg)
		p.col = p.budgeted.Collector
	} else {
		p.col = telemetry.NewCollector(p.sampler, telemetry.RegistrySource(reg, false), o.Interval)
	}
	if o.Flight || o.DumpPath != "" {
		p.flight = telemetry.NewFlightRecorder()
		p.flight.RegisterCounters(reg)
		p.col.EnableFlight(p.flight)
	}
	if o.HTTPAddr != "" {
		var opts []telemetry.HandlerOption
		endpoints := "/metrics, /series"
		if p.flight != nil {
			opts = append(opts, telemetry.WithFlight(p.flight))
			endpoints += ", /flight"
		}
		srv, bound, err := telemetry.Serve(o.HTTPAddr, telemetry.Handler(p.sampler, opts...))
		if err != nil {
			return nil, err
		}
		p.srv = srv
		fmt.Fprintf(o.Stderr, "inncabs: serving telemetry on http://%s (%s)\n", bound, endpoints)
	}
	if p.budgeted != nil {
		p.budgeted.Start()
	} else {
		p.col.Start()
	}
	return p, nil
}

// trigger arms a flight burst (no-op without a recorder).
func (p *telemetryPlane) trigger(reason string) {
	if p == nil || p.flight == nil {
		return
	}
	p.col.TriggerFlight(reason)
}

// stop halts sampling, closes the HTTP server, and writes the flight
// dump if one was requested.
func (p *telemetryPlane) stop() {
	if p == nil {
		return
	}
	if p.budgeted != nil {
		p.budgeted.Stop()
	} else {
		p.col.Stop()
	}
	if p.srv != nil {
		_ = p.srv.Close()
	}
	if p.dumpPath != "" && p.flight != nil {
		if err := p.flight.DumpJSON(p.dumpPath, os.Stdout); err != nil {
			fmt.Fprintf(p.stderr, "inncabs: flight dump: %v\n", err)
			return
		}
		d := p.flight.Snapshot()
		fmt.Fprintf(p.stderr, "inncabs: flight dump: %d frames (%d burst) to %s\n",
			d.Frames, d.Burst, p.dumpPath)
	}
}
