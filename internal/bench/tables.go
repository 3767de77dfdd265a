package bench

import (
	"fmt"
	"io"

	"repro/internal/exttool"
	"repro/internal/inncabs"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Table1 regenerates the external-tool matrix: for every benchmark, the
// uninstrumented std::async baseline at full concurrency, then the TAU
// and HPCToolkit outcomes from the tool models.
func Table1(w io.Writer, size inncabs.Size, m machine.Machine) error {
	tau := exttool.TAU()
	hpc := exttool.HPCToolkit()
	rows := make([][]string, 0, 14)
	for _, b := range inncabs.All() {
		g := b.TaskGraph(size)
		baseline, err := sim.Run(sim.Config{Machine: m, Cores: m.TotalCores(), Mode: sim.Std}, g)
		if err != nil {
			return fmt.Errorf("bench: table1 %s: %w", b.Name, err)
		}
		baseTime := "Abort"
		baseTasks := "n/a"
		if !baseline.Failed {
			baseTime = fmt.Sprintf("%.0f ms", float64(baseline.MakespanNs)/1e6)
			baseTasks = fmt.Sprintf("%d", baseline.Tasks)
		}
		rows = append(rows, []string{
			b.Name, baseTime, baseTasks,
			tau.Apply(baseline).String(),
			hpc.Apply(baseline).String(),
		})
	}
	RenderTable(w,
		fmt.Sprintf("Table 1: external tools on the std::async baseline (%d cores, %s size)", m.TotalCores(), size),
		[]string{"Benchmark", "Baseline time", "Baseline tasks", "TAU", "HPCToolkit"},
		rows)
	return nil
}

// Table3 prints the modelled platform specification (the paper's
// Table III).
func Table3(w io.Writer, m machine.Machine) {
	rows := [][]string{
		{"Processor", m.Name},
		{"Clock frequency", fmt.Sprintf("%.2f GHz", m.ClockGHz)},
		{"Sockets x cores", fmt.Sprintf("%d x %d (%d total)", m.Sockets, m.CoresPerSocket, m.TotalCores())},
		{"Cache line", fmt.Sprintf("%d bytes", m.CacheLineBytes)},
		{"RAM", fmt.Sprintf("%d GiB", m.RAMBytes>>30)},
		{"Socket bandwidth (modelled)", fmt.Sprintf("%.0f GB/s", m.SocketBandwidth/1e9)},
		{"HPX task overhead (modelled)", fmt.Sprintf("%.0f ns", m.HPXTaskOverheadNs)},
		{"pthread create (modelled)", fmt.Sprintf("%.0f ns", m.StdThreadCreateNs)},
		{"Thread ceiling (modelled)", fmt.Sprintf("%d", m.StdThreadCeiling)},
	}
	RenderTable(w, "Table 3: platform specification", []string{"Property", "Value"}, rows)
}

// Table4 prints the experiment synopsis (the paper's Table IV): the
// configuration space explored and the settings all reported results
// use.
func Table4(w io.Writer) {
	rows := [][]string{
		{"Runtime", "HPX-model (taskrt/sim), std::async-model (stdrt/sim)", "both compared"},
		{"Launch policy", "async, deferred, fork, sync, optional", "async (paper: fastest)"},
		{"Scaling", "strong scaling, fixed workload, 1-20 cores", "cores fill socket 0 first"},
		{"Hyper-threading", "modelled off", "off (paper: negligible change)"},
		{"Allocator", "contention folded into the machine cost model", "tcmalloc-equivalent"},
		{"Samples", "20 per experiment, medians reported", "stats.Repeat(20, ...)"},
		{"Counters", "evaluated and reset around each sample", "Registry.EvaluateActiveInto(buf, true)"},
	}
	RenderTable(w, "Table 4: experiment synopsis",
		[]string{"Dimension", "Explored", "Reported configuration"}, rows)
}

// Table5 regenerates the benchmark classification: structure, sync,
// task duration measured on one core via /threads/time/average,
// granularity class, and the measured scaling behaviour of both
// runtimes, next to the paper's values.
func Table5(w io.Writer, size inncabs.Size, m machine.Machine) error {
	rows := make([][]string, 0, 14)
	for _, b := range inncabs.All() {
		series, err := StrongScaling(b, size, m, CoresFor(m))
		if err != nil {
			return fmt.Errorf("bench: table5 %s: %w", b.Name, err)
		}
		rows = append(rows, []string{
			b.Name, b.Class, b.Sync,
			fmt.Sprintf("%.2f", series.point(1).hpx.avgTaskNs/1000),
			fmt.Sprintf("%.2f", b.PaperTaskUs),
			b.Granularity,
			series.ScalesTo(sim.Std), b.PaperStdScaling,
			series.ScalesTo(sim.HPX), b.PaperHPXScaling,
		})
	}
	RenderTable(w,
		fmt.Sprintf("Table 5: benchmark classification and granularity (%s size)", size),
		[]string{"Benchmark", "Class", "Synchronization",
			"Task us (measured)", "Task us (paper)", "Granularity",
			"Std scaling", "Std (paper)", "HPX scaling", "HPX (paper)"},
		rows)
	return nil
}
