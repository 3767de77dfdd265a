// Package bench regenerates every table and figure of the paper's
// evaluation: strong-scaling series of the Inncabs suite under both
// runtime models on the modelled Ivy Bridge node, the external-tool
// outcome matrix, the benchmark classification table, and the overhead
// and bandwidth figures — each as the same rows/series the paper
// reports, rendered as ASCII tables/charts and optional CSV.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/inncabs"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Point is one core count of a strong-scaling series.
type Point struct {
	// Cores is the x axis.
	Cores int
	// HPX and Std are the two runtime models' results.
	HPX sim.Result
	Std sim.Result
	// hpx is the HPX run's counter reading, the figures' only source of
	// what the paper took from counters.
	hpx reading
}

// Series is a benchmark's full strong-scaling sweep.
type Series struct {
	// Benchmark names the workload.
	Benchmark string
	// Size is the workload preset used.
	Size inncabs.Size
	// Points are ordered by core count.
	Points []Point
	// Stats are the static graph properties.
	Stats sim.Stats
}

// DefaultCores is the paper's strong-scaling x axis on the 20-core node.
func DefaultCores() []int {
	return []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
}

// CoresFor picks the strong-scaling x axis for a platform: the paper's
// grid on the 20-core node, else powers of two plus the socket boundary
// and the full machine.
func CoresFor(m machine.Machine) []int {
	total := m.TotalCores()
	if total == 20 {
		return DefaultCores()
	}
	seen := map[int]bool{}
	var out []int
	add := func(k int) {
		if k >= 1 && k <= total && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := 1; k <= total; k *= 2 {
		add(k)
	}
	add(m.CoresPerSocket)
	add(m.CoresPerSocket + 2)
	add(total)
	sort.Ints(out)
	return out
}

// StrongScaling sweeps the benchmark's task graph over the core counts
// under both runtime models. The graph builds once; each point is an
// independent virtual-time run.
func StrongScaling(b *inncabs.Benchmark, size inncabs.Size, m machine.Machine, cores []int) (Series, error) {
	g := b.TaskGraph(size)
	s := Series{Benchmark: b.Name, Size: size, Stats: g.Stats()}
	for _, k := range cores {
		var p Point
		p.Cores = k
		var err error
		if p.HPX, err = sim.Run(sim.Config{Machine: m, Cores: k, Mode: sim.HPX}, g); err != nil {
			return s, fmt.Errorf("bench: %s hpx %d cores: %w", b.Name, k, err)
		}
		if p.hpx, err = readCounters(p.HPX); err != nil {
			return s, fmt.Errorf("bench: %s hpx %d cores: %w", b.Name, k, err)
		}
		if p.Std, err = sim.Run(sim.Config{Machine: m, Cores: k, Mode: sim.Std}, g); err != nil {
			return s, fmt.Errorf("bench: %s std %d cores: %w", b.Name, k, err)
		}
		s.Points = append(s.Points, p)
	}
	return s, nil
}

// Speedup returns T(1)/T(k) for the given mode, or 0 on failure.
func (s Series) Speedup(mode sim.Mode, cores int) float64 {
	var t1, tk int64
	for _, p := range s.Points {
		r := p.HPX
		if mode == sim.Std {
			r = p.Std
		}
		if r.Failed {
			continue
		}
		if p.Cores == 1 {
			t1 = r.MakespanNs
		}
		if p.Cores == cores {
			tk = r.MakespanNs
		}
	}
	if t1 == 0 || tk == 0 {
		return 0
	}
	return float64(t1) / float64(tk)
}

// ScalesTo reports the Table V scaling classification for a mode:
// "fail" when any point failed, "no scaling" when the best time barely
// beats one core, otherwise "to k" for the knee — the smallest measured
// core count whose time is within 5% of the series minimum (execution
// time stops improving meaningfully beyond it, the paper's criterion).
func (s Series) ScalesTo(mode sim.Mode) string {
	res := func(p Point) sim.Result {
		if mode == sim.Std {
			return p.Std
		}
		return p.HPX
	}
	var t1 int64
	best := int64(1 << 62)
	for _, p := range s.Points {
		r := res(p)
		if r.Failed {
			return "fail"
		}
		if p.Cores == 1 {
			t1 = r.MakespanNs
		}
		if r.MakespanNs < best {
			best = r.MakespanNs
		}
	}
	if t1 == 0 {
		return "n/a"
	}
	if float64(best) > float64(t1)/1.3 {
		return "no scaling"
	}
	for _, p := range s.Points {
		if float64(res(p).MakespanNs) <= 1.05*float64(best) {
			return fmt.Sprintf("to %d", p.Cores)
		}
	}
	return "n/a"
}

// Result selects the mode's result at a core count (zero Result if the
// point is absent).
func (s Series) Result(mode sim.Mode, cores int) sim.Result {
	if mode == sim.Std {
		return s.point(cores).Std
	}
	return s.point(cores).HPX
}

// point returns the point at a core count (zero Point if absent).
func (s Series) point(cores int) Point {
	for _, p := range s.Points {
		if p.Cores == cores {
			return p
		}
	}
	return Point{}
}
