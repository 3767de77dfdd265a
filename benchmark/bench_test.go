package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// quickRuns caches one -quick run per workload and trace mode, so the
// tests that need a finished run share it.
var quickRuns sync.Map // "workload/trace" -> func() (*result, error)

func quickRun(t *testing.T, workload string, trace bool, seed int64) *result {
	t.Helper()
	key := workload
	if trace {
		key += "/trace"
	}
	dir := t.TempDir()
	once, _ := quickRuns.LoadOrStore(key, sync.OnceValues(func() (*result, error) {
		return execute(runConfig{Workload: workload, Seed: seed, Seconds: quickSeconds,
			Trace: trace, Quick: true, TraceDir: dir})
	}))
	res, err := once.(func() (*result, error))()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with `go run . spec > ../BENCHMARK.json`")
	}
}

// TestSpecWithinContract holds the tables to the limits the driver
// refuses a BENCHMARK.json for.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(endToEnd))
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
	}
	if metricUnits["setup_s"] != "s" || metricBetter["setup_s"] != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower better")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
	if n := len(benchmarkJSON()); n > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", n)
	}
}

// TestQuickEmitsEveryMetric runs every workload at -quick scale, traced
// and untraced. Each untraced run must print every end-to-end metric,
// non-zero, with its unit; the traced runs together must measure every
// per-layer metric, and each prints all of them.
func TestQuickEmitsEveryMetric(t *testing.T) {
	measured := make(map[string]string) // per-layer metric -> a workload that measured it
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := quickRun(t, w.Name, trace, 1)
			if !res.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			line, err := driverLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(line, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc) != 4 {
				t.Errorf("driver line has keys %v", doc)
			}
			var metrics map[string]struct {
				Value float64
				Unit  string
			}
			if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if trace {
				if len(metrics) != len(perLayer) {
					t.Errorf("%s: traced line has %d metrics, want %d", w.Name, len(metrics), len(perLayer))
				}
				for _, m := range perLayer {
					if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s: per-layer %s printed as %+v", w.Name, m.Name, got)
					}
					if res.Metrics[m.Name] != nil {
						measured[m.Name] = w.Name
					}
				}
				continue
			}
			if len(metrics) != len(endToEnd) {
				t.Errorf("%s: untraced line has %d metrics, want %d", w.Name, len(metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: end-to-end %s printed as %+v", w.Name, m.Name, got)
				}
			}
		}
	}
	for _, m := range perLayer {
		if measured[m.Name] == "" {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}

// TestSameSeedSameOperations: the seed is the only input, so two runs
// with one seed make the same operations in the same order. (How many
// they make depends on how fast the host is, so the shorter sequence
// must be a prefix of the longer.)
func TestSameSeedSameOperations(t *testing.T) {
	ops := func(seed int64) []string {
		res, err := execute(runConfig{Workload: "inncabs_coarse", Seed: seed, Seconds: quickSeconds, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ops
	}
	a, b, c := quickRun(t, "inncabs_coarse", false, 1).Ops, ops(1), ops(2)
	if len(a) == 0 {
		t.Fatal("no operations recorded")
	}
	samePrefix := func(x, y []string) bool {
		for i := 0; i < min(len(x), len(y)); i++ {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !samePrefix(a, b) {
		t.Errorf("seed 1 twice gave different operation sequences:\n%v\n%v", a, b)
	}
	if samePrefix(a, c) {
		t.Error("seeds 1 and 2 gave the same operation sequence")
	}
}

func TestMETGInterpolation(t *testing.T) {
	// A runtime that adds 0.4 us to every task is 50 % efficient at 0.4 us.
	var eff []float64
	for _, g := range sweepGrainsUs {
		eff = append(eff, g/(g+0.4))
	}
	// Linear in log(grain) between 0.25 (38.5 %) and 0.5 (55.6 %).
	f := (0.5 - 0.25/0.65) / (0.5/0.9 - 0.25/0.65)
	want := 0.25 * math.Pow(2, f)
	if got := metg(sweepGrainsUs, eff); math.Abs(got-want) > 1e-12 || math.Abs(got-0.4) > 0.01 {
		t.Errorf("metg = %g, want %g (about 0.4)", got, want)
	}
	ones := make([]float64, len(sweepGrainsUs))
	for i := range ones {
		ones[i] = 0.9
	}
	if got := metg(sweepGrainsUs, ones); got != sweepGrainsUs[0] {
		t.Errorf("all efficient: metg = %g, want the smallest grain", got)
	}
	if got := metg(sweepGrainsUs, make([]float64, len(sweepGrainsUs))); got != 16 {
		t.Errorf("none efficient: metg = %g, want the largest grain", got)
	}
	// A dip after the first crossing does not move METG.
	dip := []float64{0.2, 0.6, 0.4, 0.7, 0.8, 0.9, 0.9, 0.9}
	if got := metg(sweepGrainsUs, dip); got <= 0.125 || got >= 0.25 {
		t.Errorf("metg with a dip = %g, want within (0.125, 0.25)", got)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for p, want := range map[float64]float64{0: 1, 50: 5, 90: 9, 99: 10, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := tailPercentile(25000); got != 99 {
		t.Errorf("tail percentile of 25000 samples = %g", got)
	}
	if got := tailPercentile(200); got != 95 {
		t.Errorf("tail percentile of 200 samples = %g, want 95 (ten beyond)", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "spawn", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "request", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "body", Start: 20, End: 50},      // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "response", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := endToEndSpec{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := endToEndSpec{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.8, 1.2, 0.9, 1.1, 0.7, 1.3, 1.0, 1.0, 0.85, 1.15}
	for _, c := range []struct {
		name string
		m    endToEndSpec
		a, b []float64
		want verdict
	}{
		{"same runs", lower, steady, steady, same},
		{"5% slower is inside the bound", lower, steady, scale(steady, 1.05), same},
		{"20% slower", lower, steady, scale(steady, 1.20), worse},
		{"20% faster", lower, steady, scale(steady, 0.80), better},
		{"20% more throughput", higher, steady, scale(steady, 1.20), better},
		{"20% less throughput", higher, steady, scale(steady, 0.80), worse},
		{"spread wider than the bound", lower, noisy, noisy, unresolved},
		{"wide spread but every run better", lower, noisy, scale(noisy, 0.5), better},
		{"setup spread is exempt", endToEndSpec{Name: "setup_s", Better: "lower", Bound: 0.25}, noisy, noisy, same},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	run := func(workload string, solve float64, failed int64) *result {
		ms := make(metricSet)
		for _, m := range endToEnd {
			ms.set(m.Name, 1)
		}
		ms.set("solve_s", solve)
		return &result{Config: runConfig{Workload: workload}, Attempted: 100, Failed: failed, Metrics: ms}
	}
	set := func(solve float64, failed int64) map[string][]*result {
		by := make(map[string][]*result)
		for i := range steady {
			by["grain_sweep"] = append(by["grain_sweep"], run("grain_sweep", solve*steady[i], failed))
		}
		return by
	}
	var out bytes.Buffer
	if code := compareRuns(set(1, 0), set(1, 0), &out); code != 0 {
		t.Errorf("A/A compare exits %d:\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "grain_sweep"); rows != len(endToEnd)+1 {
		t.Errorf("compare printed %d rows for one workload, want %d", rows, len(endToEnd)+1)
	}
	if code := compareRuns(set(1, 0), set(1.3, 0), &out); code != 1 {
		t.Errorf("a 30%% slower solve_s exits %d, want 1", code)
	}
	if code := compareRuns(set(1, 0), set(1, 1), &out); code != 1 {
		t.Errorf("a higher failed-operation share exits %d, want 1", code)
	}
}
