package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// spin is the synthetic task body: iters rounds of xorshift64 on x. It
// reads no clock, so a body costs what the calibration says it costs,
// and its result depends on every round, so it cannot be elided.
//
//go:noinline
func spin(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var spinSink uint64

// calibrate measures spin's speed in iterations per nanosecond: the
// median over short exposures filling d, so a preempted slice is an
// outlier instead of a bias.
func calibrate(d time.Duration) float64 {
	const iters = 200_000 // ~0.2 ms per exposure
	var perNs sample
	for begin := time.Now(); time.Since(begin) < d; {
		t0 := time.Now()
		spinSink += spin(uint64(perNs.n())+1, iters)
		perNs.add(iters / float64(time.Since(t0).Nanoseconds()))
	}
	return perNs.median()
}

// hostInfo is the noise context recorded with every result.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	CalibStart float64 `json:"calib_iters_per_ns_start"`
	CalibEnd   float64 `json:"calib_iters_per_ns_end"`
	// Noisy is set when the serial reference slices of the run spread
	// (IQR/median) by more than 10 %.
	Noisy bool `json:"noisy"`
}

func newHostInfo() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// calibDriftPct is how far the end-of-run calibration moved from the
// start-of-run one.
func (h hostInfo) calibDriftPct() float64 {
	if h.CalibStart == 0 {
		return 0
	}
	return math.Abs(h.CalibEnd-h.CalibStart) / h.CalibStart * 100
}

// goSnapshot is the Go runtime's own meters, read before and after a
// timed region through runtime/metrics.
type goSnapshot struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauseSec float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readGo() goSnapshot {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out goSnapshot
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			// Bucket midpoint; an open-ended edge bucket takes its finite edge.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			out.gcPauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return out
}

// peakRSSMiB is the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// goLedger fills the go.* per-layer metrics for a region that ran tasks.
func goLedger(m metricSet, before, after goSnapshot, tasks float64) {
	if tasks > 0 {
		m.set("go.alloc_bytes_per_task", float64(after.allocBytes-before.allocBytes)/tasks)
	}
	m.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles))
	m.set("go.gc_pause_ms", (after.gcPauseSec-before.gcPauseSec)*1000)
	m.set("go.peak_rss_mb", peakRSSMiB())
}
