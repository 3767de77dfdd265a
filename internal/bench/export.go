package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/inncabs"
	"repro/internal/machine"
)

// ExportFigureCSV writes the raw data series behind one figure as CSV,
// for external plotting tools. Every figure shares one schema so a
// single plotting script covers all fourteen.
func ExportFigureCSV(w io.Writer, id string, size inncabs.Size, m machine.Machine) error {
	spec, ok := figures[id]
	if !ok {
		return fmt.Errorf("bench: %q is not a figure id", id)
	}
	b, err := inncabs.ByName(spec.benchmark)
	if err != nil {
		return err
	}
	s, err := StrongScaling(b, size, m, CoresFor(m))
	if err != nil {
		return err
	}
	header := []string{
		"benchmark", "cores",
		"hpx_time_s", "hpx_failed", "std_time_s", "std_failed",
		"hpx_task_time_per_core_s", "hpx_overhead_per_core_s",
		"hpx_avg_task_us", "hpx_avg_overhead_us",
		"hpx_bandwidth_gbs", "hpx_idle_rate",
	}
	rows := make([][]string, 0, len(s.Points))
	for _, p := range s.Points {
		k := float64(p.Cores)
		rows = append(rows, []string{
			s.Benchmark,
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%.6f", float64(p.HPX.MakespanNs)/1e9),
			fmt.Sprintf("%v", p.HPX.Failed),
			fmt.Sprintf("%.6f", float64(p.Std.MakespanNs)/1e9),
			fmt.Sprintf("%v", p.Std.Failed),
			fmt.Sprintf("%.6f", float64(p.hpx.taskNs)/1e9/k),
			fmt.Sprintf("%.6f", float64(p.hpx.overheadNs)/1e9/k),
			fmt.Sprintf("%.3f", p.hpx.avgTaskNs/1000),
			fmt.Sprintf("%.3f", p.hpx.avgOverheadNs/1000),
			fmt.Sprintf("%.3f", p.hpx.bandwidth/1e9),
			fmt.Sprintf("%.4f", p.hpx.idleRate),
		})
	}
	WriteCSV(w, header, rows)
	return nil
}

// ExportAllCSV writes one CSV per figure into dir (created if needed),
// named fig<N>.csv, and returns the files written.
func ExportAllCSV(dir string, size inncabs.Size, m machine.Machine) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, id := range IDs() {
		if _, ok := figures[id]; !ok {
			continue
		}
		path := filepath.Join(dir, id+".csv")
		f, err := os.Create(path)
		if err != nil {
			return written, err
		}
		err = ExportFigureCSV(f, id, size, m)
		cerr := f.Close()
		if err != nil {
			return written, err
		}
		if cerr != nil {
			return written, cerr
		}
		written = append(written, path)
	}
	return written, nil
}
