// Command benchmark is the repository's one benchmark: four workloads
// (two Inncabs kernel classes, a Task Bench-style grain sweep, and the
// remote spawn/counter plane), each reporting the end-to-end metrics of
// BENCHMARK.json untraced and a per-layer ledger when traced. See
// README.md in this directory.
//
// Usage (from this directory; the repository root runs it through
// run.sh):
//
//	go run . -workload grain_sweep -seed 1 [-seconds 20] [-trace 1] [-quick] [-out runs.json]
//	go run . -all -quick
//	go run . compare a.json b.json
//	go run . spec            # prints BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricValue is one reported number. Q1/Q3/N describe the sample the
// value is the median of, where there is one.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]*metricValue

// metricUnits and metricBetter index spec.go's tables by metric name.
var metricUnits, metricBetter = func() (units, better map[string]string) {
	units, better = make(map[string]string), make(map[string]string)
	for _, m := range endToEnd {
		units[m.Name], better[m.Name] = m.Unit, m.Better
	}
	for _, m := range perLayer {
		units[m.Name], better[m.Name] = m.Unit, m.Better
	}
	return units, better
}()

// set records a single value for a metric named in spec.go.
func (m metricSet) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	m[name] = &metricValue{Value: v, Unit: unit}
}

// setMedian records the median of xs (each multiplied by scale) with
// its quartiles and sample count.
func (m metricSet) setMedian(name string, xs []float64, scale float64) {
	m.set(name, median(xs)*scale)
	q1, q3 := quartiles(xs)
	mv := m[name]
	mv.Q1, mv.Q3, mv.N = q1*scale, q3*scale, len(xs)
}

// setFast records the fast decile of xs (times: the 10th percentile,
// throughputs: the 90th; see fastLow) with quartiles and sample count.
func (m metricSet) setFast(name string, xs []float64, scale float64) {
	m.setMedian(name, xs, scale)
	if metricBetter[name] == "higher" {
		m[name].Value = fastHigh(xs) * scale
	} else {
		m[name].Value = fastLow(xs) * scale
	}
}

func (m metricSet) get(name string) float64 {
	if v := m[name]; v != nil {
		return v.Value
	}
	return 0
}

// runConfig is everything that selects a run; besides the workload name
// the seed is the only input.
type runConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	// TraceDir is where a traced run writes its spans.
	TraceDir string `json:"-"`
}

// run is the state one workload run accumulates.
type run struct {
	cfg     runConfig
	rng     *rand.Rand // seeded by -seed: every shuffle and input of the run is drawn from it
	host    hostInfo
	metrics metricSet
	tr      *tracer // nil unless tracing

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string // first few failure messages
	ops      []string // the seeded operation sequence, coarse grain
	// serialSpread collects IQR/median of serial reference slices.
	serialSpread []float64
	// tasks is the work the timed region completed, the denominator of
	// go.alloc_bytes_per_task.
	tasks float64
}

// fail counts one failed operation.
func (r *run) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations under one message.
func (r *run) failN(n int, format string, args ...any) {
	r.failed.Add(int64(n))
	r.mu.Lock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) op(format string, args ...any) {
	r.mu.Lock()
	r.ops = append(r.ops, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// budget is the wall time a phase given share of the run may use.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.cfg.Seconds * float64(time.Second))
}

// workload is one of the four scenarios. setup is called several times
// (teardown between) so set-up time is a median; measure runs once on
// the last set-up.
type workload interface {
	setup(r *run) error
	measure(r *run) error
	teardown()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "inncabs_coarse":
		return &inncabsWorkload{kernels: coarseKernels}, nil
	case "inncabs_fine":
		return &inncabsWorkload{kernels: fineKernels, fine: true}, nil
	case "grain_sweep":
		return &grainWorkload{}, nil
	case "remote_plane":
		return &remoteWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is what one run leaves behind: the driver reads the last
// stdout line (see driverLine), -out appends the whole thing to a file
// for compare.
type result struct {
	Config    runConfig `json:"config"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   metricSet `json:"metrics"`
	Host      hostInfo  `json:"host"`
	TraceFile string    `json:"trace_file,omitempty"`
	Ops       []string  `json:"-"`
	Took      float64   `json:"took_s"`
}

const setupRepeats = 3

// execute runs one workload end to end.
func execute(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	r := &run{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), host: newHostInfo(), metrics: make(metricSet)}
	if cfg.Trace {
		r.tr = newTracer()
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		r.host.CalibStart = calibrate(r.calibFor())
		if err := w.setup(r); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	goBefore := readGo()
	if err := w.measure(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	goAfter := readGo()
	r.host.CalibEnd = calibrate(r.calibFor())
	r.host.Noisy = median(r.serialSpread) > 0.10

	r.metrics.setMedian("setup_s", setups, 1)
	if cfg.Trace {
		goLedger(r.metrics, goBefore, goAfter, r.tasks)
		r.metrics.set("host.calib_drift_pct", r.host.calibDriftPct())
	}
	res := &result{
		Config: cfg, Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Failures: r.failures, Metrics: r.metrics, Host: r.host, Ops: r.ops,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if r.tr != nil {
		file := fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed)
		if res.TraceFile, err = r.tr.write(cfg.TraceDir, file); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Took = time.Since(begin).Seconds()
	return res, nil
}

func (r *run) calibFor() time.Duration {
	if r.cfg.Quick {
		return 20 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// driverLine renders the contract's last stdout line: untraced runs
// carry every end-to-end metric, traced runs every per-layer metric (a
// layer this workload does not exercise reads 0).
func driverLine(res *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]mv)
	if res.Config.Trace {
		for _, m := range perLayer {
			out[m.Name] = mv{res.Metrics.get(m.Name), m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			v := res.Metrics[m.Name]
			if v == nil {
				return nil, fmt.Errorf("workload %s did not report %s", res.Config.Workload, m.Name)
			}
			out[m.Name] = mv{v.Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
}

// printTable writes the human-readable report: every metric the run
// measured, with quartiles and sample count where it summarises a sample.
func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v seconds=%g took=%.1fs\n", res.Config.Workload,
		res.Config.Seed, res.Config.Trace, res.Config.Seconds, res.Took)
	h := res.Host
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d %s %q calib=%.4f->%.4f iters/ns (drift %.2f%%) noisy=%v\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.CalibStart, h.CalibEnd, h.calibDriftPct(), h.Noisy)
	fmt.Fprintf(w, "# operations: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# failure: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		switch {
		case v.Q1 != 0 || v.Q3 != 0:
			fmt.Fprintf(w, "%-36s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", n, v.Value, v.Unit, v.Q1, v.Q3, v.N)
		case v.N > 0: // a sum of per-kernel or per-grain summaries over n rounds
			fmt.Fprintf(w, "%-36s %14.6g %-6s n=%d\n", n, v.Value, v.Unit, v.N)
		default:
			fmt.Fprintf(w, "%-36s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "# spans: %s\n", res.TraceFile)
	}
}

// appendResult adds res to the JSON array in path (created if absent).
func appendResult(path string, res *result) error {
	var all []*result
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	all = append(all, res)
	b, err = json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "spec":
			if _, err := os.Stdout.Write(benchmarkJSON()); err != nil {
				os.Exit(2)
			}
			return
		}
	}
	var cfg runConfig
	var trace int
	var all bool
	var out string
	flag.StringVar(&cfg.Workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for shuffles and inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", runSeconds, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&cfg.Quick, "quick", false, "smoke-test scale: about a second a workload, numbers not comparable")
	flag.BoolVar(&all, "all", false, "run every workload")
	flag.StringVar(&out, "out", "", "append the full result to this JSON file (input to compare)")
	flag.StringVar(&cfg.TraceDir, "trace-dir", ".bench_build/trace", "where -trace 1 writes its spans (git ignores .bench_build)")
	flag.Parse()
	cfg.Trace = trace != 0
	if cfg.Quick {
		cfg.Seconds = quickSeconds
	}
	names := []string{cfg.Workload}
	if all {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		cfg.Workload = name
		res, err := execute(cfg)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stdout, res)
		if out != "" {
			if err := appendResult(out, res); err != nil {
				fatal(err)
			}
		}
		line, err := driverLine(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

// fatal ends the process without a result line, which is how the driver
// tells a run that could not be made from one that measured failures.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// quickSeconds is the measuring time under -quick.
const quickSeconds = 1.5
