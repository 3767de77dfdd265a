package main

import (
	"encoding/json"
	"strconv"
	"strings"

	"repro/internal/inncabs"
)

// The tables in this file are the single source of the benchmark's
// contract: `go run . spec` renders them as the repository's
// BENCHMARK.json, the workloads emit exactly these names, and compare
// reads the bounds from here.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 25

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"inncabs_coarse", "7 Inncabs kernels with 28 us-10 ms task bodies: the kernel does the work, so only stealing, wakeup or adapter regressions may move it; a spawn-path change must not"},
	{"inncabs_fine", "7 Inncabs kernels with 1-5 us task bodies: taskrt submit, dispatch and completion (and taskrt.Mutex in intersim) do most of the work"},
	{"grain_sweep", "Task Bench-style synthetic tasks at 0.125-16 us used four ways (batch waves, single spawn fork-join, monitored, inlined) so a gain for one that costs another shows"},
	{"remote_plane", "parcel spawn plane and bulk counter sampling over TCP loopback through agas: latency, 64 in flight, head-of-line blocking, and reads beside writes on one half-duplex connection"},
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Every workload reports every end-to-end metric (the driver's contract),
// so each name is a role that each workload fills with its own job; the
// README's table maps role x workload to the measurement. The bounds are
// wide because the host is noisy: over four sets of ten runs the widest
// run-to-run spread (IQR/median) seen was 14 % for solve_s, 17 % for
// serial_solve_s, 11 % for tasks_per_s, 10 % for monitored_tasks_per_s
// and 16 % for sample_to_scrape_us (README, Noise).
var endToEnd = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.20},
	{"serial_solve_s", "s", "lower", 0.25},
	{"tasks_per_s", "1/s", "higher", 0.20},
	{"monitored_tasks_per_s", "1/s", "higher", 0.20},
	{"sample_to_scrape_us", "us", "lower", 0.25},
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// sweepGrainsUs are the nominal task-body durations of the grain sweep.
var sweepGrainsUs = []float64{0.125, 0.25, 0.5, 1, 2, 4, 8, 16}

// grainLabel renders 0.125 as "0p125us" for use inside a metric name.
func grainLabel(us float64) string {
	return strings.Replace(strconv.FormatFloat(us, 'f', -1, 64), ".", "p", 1) + "us"
}

var perLayer = buildPerLayer()

func buildPerLayer() []perLayerSpec {
	var out []perLayerSpec
	add := func(name, unit, better string) {
		out = append(out, perLayerSpec{name, unit, better})
	}
	for _, b := range inncabs.All() {
		add("inncabs."+b.Name+".solve_s", "s", "lower")
		add("inncabs."+b.Name+".serial_s", "s", "lower")
		add("inncabs."+b.Name+".tasks", "count", "lower")
	}
	add("taskrt.async_calls", "count", "lower")
	add("taskrt.async_ns", "ns", "lower")
	add("taskrt.get_ns", "ns", "lower")
	add("taskrt.tasks_executed", "count", "lower")
	add("taskrt.steals", "count", "lower")
	add("taskrt.avg_task_us", "us", "lower")
	add("taskrt.avg_overhead_us", "us", "lower")
	add("taskrt.overhead_share_pct", "%", "lower")
	add("taskrt.idle_rate_pct", "%", "lower")
	add("taskrt.scaling_eff", "ratio", "higher")
	add("stdrt.solve_s", "s", "lower")
	add("taskrt.vs_stdrt_ratio", "ratio", "lower")
	for _, w := range []string{"w1", "wN"} {
		for _, g := range sweepGrainsUs {
			add("taskrt.eff_"+w+"_"+grainLabel(g), "ratio", "higher")
		}
	}
	add("taskrt.metg_us_w1", "us", "lower")
	add("taskrt.metg_us_wN", "us", "lower")
	add("taskrt.submit_ns_per_child", "ns", "lower")
	add("taskrt.wait_ns_per_child", "ns", "lower")
	add("taskrt.release_ns_per_child", "ns", "lower")
	add("taskrt.spawn_get_ns", "ns", "lower")
	add("taskrt.batch_spawn_ns", "ns", "lower")
	add("taskrt.forkjoin_tasks_per_s_1us", "1/s", "higher")
	add("taskrt.hinted_tasks_per_s_1us", "1/s", "higher")
	add("taskrt.inlined_share", "ratio", "higher")
	add("core.evaluate_batch_ns", "ns", "lower")
	add("core.handle_evaluate_ns", "ns", "lower")
	add("core.counters_sampled", "count", "lower")
	add("telemetry.sample_once_us", "us", "lower")
	add("telemetry.scrape_us", "us", "lower")
	add("telemetry.scrape_bytes", "bytes", "lower")
	add("telemetry.duty_pct", "%", "lower")
	add("telemetry.monitor_overhead_pct", "%", "lower")
	add("telemetry.observe_us", "us", "lower")
	add("parcel.spawn_p50_us", "us", "lower")
	add("parcel.spawn_p99_us", "us", "lower")
	add("parcel.hol_fast_spawn_ms", "ms", "lower")
	add("parcel.spawn_action_us", "us", "lower")
	add("parcel.wait_spawn_us", "us", "lower")
	add("parcel.request_leg_us", "us", "lower")
	add("parcel.body_us", "us", "lower")
	add("parcel.response_leg_us", "us", "lower")
	add("parcel.poll_wait_us", "us", "lower")
	add("parcel.bytes_per_spawn", "bytes", "lower")
	add("parcel.parcels_per_spawn", "count", "lower")
	add("parcel.retries", "count", "lower")
	add("parcel.spawn_refused", "count", "lower")
	add("parcel.slow_body_spawn_per_s_64", "1/s", "higher")
	add("parcel.evaluate_us", "us", "lower")
	add("parcel.bulk_sample_us_k1", "us", "lower")
	add("parcel.bulk_sample_us_k16", "us", "lower")
	add("parcel.bulk_sample_us_k128", "us", "lower")
	add("agas.route_us", "us", "lower")
	add("agas.evaluate_counter_us", "us", "lower")
	add("go.alloc_bytes_per_task", "bytes", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.gc_pause_ms", "ms", "lower")
	add("go.peak_rss_mb", "MiB", "lower")
	add("host.calib_drift_pct", "%", "lower")
	add("trace_overhead_pct", "%", "lower")
	return out
}

// benchmarkJSON renders the root BENCHMARK.json.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []endToEndSpec `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is static data
	}
	return append(b, '\n')
}
