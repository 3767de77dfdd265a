package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/inncabs"
	"repro/internal/machine"
	"repro/internal/sim"
)

// figureKind selects what a figure plots.
type figureKind int

const (
	execFigure figureKind = iota
	overheadFigure
	bandwidthFigure
)

// figureSpec maps the paper's figure numbers to content.
type figureSpec struct {
	kind      figureKind
	benchmark string
	caption   string
}

var figures = map[string]figureSpec{
	"fig1":  {execFigure, "alignment", "Execution time of Alignment (HPX vs C++11 Standard)"},
	"fig2":  {execFigure, "pyramids", "Execution time of Pyramids (HPX vs C++11 Standard)"},
	"fig3":  {execFigure, "strassen", "Execution time of Strassen (HPX vs C++11 Standard)"},
	"fig4":  {execFigure, "sort", "Execution time of Sort (HPX vs C++11 Standard)"},
	"fig5":  {execFigure, "fft", "Execution time of FFT (HPX vs C++11 Standard)"},
	"fig6":  {execFigure, "uts", "Execution time of UTS (HPX vs C++11 Standard)"},
	"fig7":  {execFigure, "intersim", "Execution time of Intersim (HPX vs C++11 Standard)"},
	"fig8":  {overheadFigure, "alignment", "Alignment overheads"},
	"fig9":  {overheadFigure, "pyramids", "Pyramids overheads"},
	"fig10": {overheadFigure, "strassen", "Strassen overheads"},
	"fig11": {overheadFigure, "fft", "FFT overheads"},
	"fig12": {overheadFigure, "uts", "UTS overheads"},
	"fig13": {bandwidthFigure, "alignment", "Alignment OFFCORE bandwidth"},
	"fig14": {bandwidthFigure, "pyramids", "Pyramids OFFCORE bandwidth"},
}

// tables maps table ids to runners; see Run.
var tableIDs = []string{"table1", "table3", "table4", "table5", "ablation", "grainsweep"}

// IDs returns every regenerable experiment id, tables first, then
// figures in paper order.
func IDs() []string {
	ids := append([]string(nil), tableIDs...)
	figs := make([]string, 0, len(figures))
	for id := range figures {
		figs = append(figs, id)
	}
	sort.Slice(figs, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(figs[i], "fig%d", &a)
		fmt.Sscanf(figs[j], "fig%d", &b)
		return a < b
	})
	return append(ids, figs...)
}

// Describe returns a one-line description of an experiment id.
func Describe(id string) string {
	switch id {
	case "table1":
		return "External tools (TAU, HPCToolkit) on the std::async baseline"
	case "table3":
		return "Platform specification"
	case "table4":
		return "Experiment synopsis"
	case "table5":
		return "Benchmark classification, task granularity and scaling"
	case "ablation":
		return "Cost-model ablations: which term produces which published effect"
	case "grainsweep":
		return "Granularity sweep: the paper's dominant-factor claim on a synthetic workload"
	}
	if spec, ok := figures[id]; ok {
		return spec.caption
	}
	return "unknown"
}

// Run regenerates one table or figure to w.
func Run(w io.Writer, id string, size inncabs.Size, m machine.Machine) error {
	switch id {
	case "table1":
		return Table1(w, size, m)
	case "ablation":
		return Ablations(w, size, m)
	case "grainsweep":
		return GrainSweepTable(w, m, 16)
	case "table3":
		Table3(w, m)
		return nil
	case "table4":
		Table4(w)
		return nil
	case "table5":
		return Table5(w, size, m)
	}
	spec, ok := figures[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment id %q (have %v)", id, IDs())
	}
	b, err := inncabs.ByName(spec.benchmark)
	if err != nil {
		return err
	}
	series, err := StrongScaling(b, size, m, CoresFor(m))
	if err != nil {
		return err
	}
	switch spec.kind {
	case execFigure:
		renderExecFigure(w, id, spec, series)
	case overheadFigure:
		renderOverheadFigure(w, id, spec, series)
	case bandwidthFigure:
		renderBandwidthFigure(w, id, spec, series)
	}
	return nil
}

// RunAll regenerates every experiment in order.
func RunAll(w io.Writer, size inncabs.Size, m machine.Machine) error {
	for _, id := range IDs() {
		if err := Run(w, id, size, m); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func secondsOrNaN(r sim.Result) float64 {
	if r.Failed || r.MakespanNs == 0 {
		return math.NaN()
	}
	return float64(r.MakespanNs) / 1e9
}

func renderExecFigure(w io.Writer, id string, spec figureSpec, s Series) {
	var xs, hpxY, stdY []float64
	rows := make([][]string, 0, len(s.Points))
	for _, p := range s.Points {
		xs = append(xs, float64(p.Cores))
		hpxY = append(hpxY, secondsOrNaN(p.HPX))
		stdY = append(stdY, secondsOrNaN(p.Std))
		stdCell := "FAIL"
		if !p.Std.Failed {
			stdCell = fmt.Sprintf("%.3f", secondsOrNaN(p.Std))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%.3f", secondsOrNaN(p.HPX)),
			stdCell,
		})
	}
	title := fmt.Sprintf("Figure %s: %s [%s size]", id[3:], spec.caption, s.Size)
	RenderTable(w, title, []string{"Cores", "HPX [s]", "C++11 Std [s]"}, rows)
	RenderChart(w, "", "cores", "execution time [s]", []ChartSeries{
		{Name: "HPX", Marker: 'H', X: xs, Y: hpxY},
		{Name: "C++11 Std", Marker: 'S', X: xs, Y: stdY},
	})
	maxCores := s.Points[len(s.Points)-1].Cores
	fmt.Fprintf(w, "  HPX speedup at %d cores: %.1fx; Std: %.1fx\n",
		maxCores, s.Speedup(sim.HPX, maxCores), s.Speedup(sim.Std, maxCores))
}

func renderOverheadFigure(w io.Writer, id string, spec figureSpec, s Series) {
	one := s.point(1)
	var xs, execY, idealY, taskY, idealTaskY, ovhY []float64
	rows := make([][]string, 0, len(s.Points))
	for _, p := range s.Points {
		r := p.HPX
		k := float64(p.Cores)
		xs = append(xs, k)
		execY = append(execY, secondsOrNaN(r))
		idealY = append(idealY, float64(one.HPX.MakespanNs)/1e9/k)
		taskY = append(taskY, float64(p.hpx.taskNs)/1e9/k)
		idealTaskY = append(idealTaskY, float64(one.hpx.taskNs)/1e9/k)
		ovhY = append(ovhY, float64(p.hpx.overheadNs)/1e9/k)
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%.3f", secondsOrNaN(r)),
			fmt.Sprintf("%.3f", float64(one.HPX.MakespanNs)/1e9/k),
			fmt.Sprintf("%.3f", float64(p.hpx.taskNs)/1e9/k),
			fmt.Sprintf("%.3f", float64(one.hpx.taskNs)/1e9/k),
			fmt.Sprintf("%.4f", float64(p.hpx.overheadNs)/1e9/k),
		})
	}
	title := fmt.Sprintf("Figure %s: %s (HPX) [%s size]", id[3:], spec.caption, s.Size)
	RenderTable(w, title,
		[]string{"Cores", "exec_time [s]", "ideal_scaling [s]",
			"task time/core [s]", "ideal task time [s]", "sched_overhd/core [s]"},
		rows)
	RenderChart(w, "", "cores", "time [s]", []ChartSeries{
		{Name: "exec_time", Marker: 'E', X: xs, Y: execY},
		{Name: "ideal_scaling", Marker: 'i', X: xs, Y: idealY},
		{Name: "task time/core", Marker: 'T', X: xs, Y: taskY},
		{Name: "ideal task time", Marker: '.', X: xs, Y: idealTaskY},
		{Name: "sched_overhd/core", Marker: 'o', X: xs, Y: ovhY},
	})
}

func renderBandwidthFigure(w io.Writer, id string, spec figureSpec, s Series) {
	var xs, bwY []float64
	rows := make([][]string, 0, len(s.Points))
	for _, p := range s.Points {
		xs = append(xs, float64(p.Cores))
		bw := p.hpx.bandwidth / 1e9
		bwY = append(bwY, bw)
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%.2f", bw),
			fmt.Sprintf("%.2f", bw/float64(p.Cores)),
		})
	}
	title := fmt.Sprintf("Figure %s: %s [%s size]", id[3:], spec.caption, s.Size)
	RenderTable(w, title, []string{"Cores", "OFFCORE bandwidth [GB/s]", "per core [GB/s]"}, rows)
	RenderChart(w, "", "cores", "bandwidth [GB/s]", []ChartSeries{
		{Name: "OFFCORE bandwidth", Marker: 'B', X: xs, Y: bwY},
	})
}
