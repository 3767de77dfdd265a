package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// verdict is compare's judgement of one workload x metric.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of a (the parent) and b (the change) for one
// metric by the rule of the choosing-metrics guide, sections 6 to 8:
//
//   - unresolved when either side's run-to-run spread (IQR/median) is
//     wider than the bound, unless every run of b reads better than
//     every run of a;
//   - worse when b's median is worse than a's by more than the bound;
//   - better when b wins at least nine tenths of the pairs (run i of a
//     against run i of b, ties counting for neither) and the medians
//     differ by more than a's own interquartile distance;
//   - same otherwise.
//
// The spread of setup_s is not held to its bound: it is dominated by
// fixed-length calibration plus one-off start-up work, and the driver
// exempts it too.
func judge(m endToEndSpec, a, b []float64) verdict {
	sign := 1.0 // multiply so that larger is always worse
	if m.Better == "higher" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	if m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound) {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*y >= sign*x {
					allBetter = false
				}
			}
		}
		if allBetter {
			return better
		}
		return unresolved
	}
	if medA != 0 && sign*(medB-medA)/math.Abs(medA) > m.Bound {
		return worse
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*b[i] < sign*a[i] {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(medB-medA) > q3-q1 {
		return better
	}
	return same
}

// loadRuns reads a file written by -out and groups its untraced runs by
// workload.
func loadRuns(path string) (map[string][]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*result
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string][]*result)
	for _, r := range all {
		if !r.Config.Trace {
			by[r.Config.Workload] = append(by[r.Config.Workload], r)
		}
	}
	return by, nil
}

func values(runs []*result, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v := r.Metrics[metric]; v != nil {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func failedShare(runs []*result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// compareMain prints one row per workload x end-to-end metric and
// returns the exit code: 1 when any row is worse or b fails a larger
// share of its operations than a, 2 on unusable input.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <a.json> <b.json>")
		return 2
	}
	a, err := loadRuns(args[0])
	if err == nil {
		var b map[string][]*result
		if b, err = loadRuns(args[1]); err == nil {
			return compareRuns(a, b, out)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func compareRuns(a, b map[string][]*result, out io.Writer) int {
	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] n\tb median [q1, q3] n\tchange\tbound\tverdict")
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(m, xa, xb)
			if v == worse {
				code = 1
			}
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, median(xa), qa1, qa3, len(xa), median(xb), qb1, qb3, len(xb),
				(median(xb)-median(xa))/median(xa)*100, m.Bound*100, v)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		status := "ok"
		if fb > fa {
			status = "MORE FAILURES"
			code = 1
		}
		fmt.Fprintf(tw, "%s\tfailed operations\tshare\t%.3g\t%.3g\t\t\t%s\n", w.Name, fa, fb, status)
	}
	tw.Flush()
	return code
}
