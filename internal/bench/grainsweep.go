package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// GrainPoint is one task-granularity sample of the sweep.
type GrainPoint struct {
	// GrainUs is the task duration in microseconds.
	GrainUs float64
	// HPXSpeedup and StdSpeedup are T(1)/T(cores) for each model (0 on
	// failure).
	HPXSpeedup float64
	StdSpeedup float64
	// StdOverHPX is the ratio of absolute execution times at the swept
	// core count (∞ represented as 0 on std failure).
	StdOverHPX float64
	// HPXOverheadShare is scheduling overhead over task time for the
	// lightweight model.
	HPXOverheadShare float64
}

// GrainSweep quantifies the paper's central claim — task granularity is
// the dominant factor — on a synthetic workload: a flat fan-out of
// fixed total work (1 second of compute) whose task size sweeps from
// 1 µs to 10 ms, executed on `cores` cores under both runtime models.
// The result shows where the lightweight runtime's advantage comes from
// and where the thread-per-task baseline stops being competitive.
func GrainSweep(m machine.Machine, cores int) ([]GrainPoint, error) {
	const totalWorkNs = 1e9
	grains := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000}
	out := make([]GrainPoint, 0, len(grains))
	for _, us := range grains {
		workNs := int64(us * 1000)
		tasks := int(totalWorkNs / float64(workNs))
		if tasks < cores {
			tasks = cores
		}
		root := &sim.Node{}
		for i := 0; i < tasks; i++ {
			root.Children = append(root.Children, sim.Leaf(workNs, 0))
		}
		g := &sim.Graph{Label: fmt.Sprintf("grain-%gus", us), Root: root}

		p := GrainPoint{GrainUs: us}
		h1, err := sim.Run(sim.Config{Machine: m, Cores: 1, Mode: sim.HPX}, g)
		if err != nil {
			return nil, err
		}
		hk, err := sim.Run(sim.Config{Machine: m, Cores: cores, Mode: sim.HPX}, g)
		if err != nil {
			return nil, err
		}
		p.HPXSpeedup = float64(h1.MakespanNs) / float64(hk.MakespanNs)
		rd, err := readCounters(hk)
		if err != nil {
			return nil, err
		}
		if rd.taskNs > 0 {
			p.HPXOverheadShare = float64(rd.overheadNs) / float64(rd.taskNs)
		}
		s1, err := sim.Run(sim.Config{Machine: m, Cores: 1, Mode: sim.Std}, g)
		if err != nil {
			return nil, err
		}
		sk, err := sim.Run(sim.Config{Machine: m, Cores: cores, Mode: sim.Std}, g)
		if err != nil {
			return nil, err
		}
		if !s1.Failed && !sk.Failed {
			p.StdSpeedup = float64(s1.MakespanNs) / float64(sk.MakespanNs)
			p.StdOverHPX = float64(sk.MakespanNs) / float64(hk.MakespanNs)
		}
		out = append(out, p)
	}
	return out, nil
}

// GrainSweepTable renders the sweep.
func GrainSweepTable(w io.Writer, m machine.Machine, cores int) error {
	points, err := GrainSweep(m, cores)
	if err != nil {
		return err
	}
	rows := make([][]string, len(points))
	var xs, ratio []float64
	for i, p := range points {
		stdCell := "fail"
		if p.StdOverHPX > 0 {
			stdCell = fmt.Sprintf("%.2f", p.StdOverHPX)
		}
		rows[i] = []string{
			fmt.Sprintf("%g", p.GrainUs),
			fmt.Sprintf("%.1f", p.HPXSpeedup),
			fmt.Sprintf("%.1f", p.StdSpeedup),
			stdCell,
			fmt.Sprintf("%.1f%%", 100*p.HPXOverheadShare),
		}
		xs = append(xs, math.Log10(p.GrainUs))
		if p.StdOverHPX > 0 {
			ratio = append(ratio, p.StdOverHPX)
		} else {
			ratio = append(ratio, math.NaN())
		}
	}
	RenderTable(w,
		fmt.Sprintf("Granularity sweep: 1 s of work split into uniform tasks, %d cores", cores),
		[]string{"Task µs", "HPX speedup", "Std speedup", "Std/HPX time", "HPX overhead share"},
		rows)
	RenderChart(w, "", "log10(task µs)", "Std/HPX time ratio", []ChartSeries{
		{Name: "Std time over HPX time", Marker: 'R', X: xs, Y: ratio},
	})
	fmt.Fprintln(w, "  Reading: below ~10 µs the thread-per-task baseline is several times")
	fmt.Fprintln(w, "  slower (or dead); past ~1 ms the runtimes converge — Table V's")
	fmt.Fprintln(w, "  granularity classes are exactly the bands of this curve.")
	return nil
}
