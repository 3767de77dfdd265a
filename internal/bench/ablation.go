package bench

import (
	"fmt"
	"io"

	"repro/internal/inncabs"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Ablation quantifies which cost-model term produces which published
// effect, by re-running two shape-critical experiments with individual
// terms removed:
//
//   - UTS (fig 6/12): removing the remote-contention term must erase
//     the post-socket-boundary slowdown.
//   - Pyramids (fig 14): removing bandwidth saturation must restore
//     linear bandwidth scaling.
//   - FFT (fig 5): removing the std creation cost must collapse the
//     HPX-vs-std gap.
//
// DESIGN.md calls these three terms out as the load-bearing model
// choices; this table is the evidence.
type Ablation struct {
	// Name identifies the removed term.
	Name string
	// Benchmark and Metric say what was measured.
	Benchmark string
	Metric    string
	// Full is the metric with the complete model, Removed without the
	// term, and Effect a one-line reading.
	Full    float64
	Removed float64
	Effect  string
}

// RunAblations computes the ablation table at the given size.
func RunAblations(size inncabs.Size, base machine.Machine) ([]Ablation, error) {
	var out []Ablation

	// 1. Remote contention off -> UTS 20-core/10-core time ratio.
	utsRatio := func(m machine.Machine) (float64, error) {
		b, err := inncabs.ByName("uts")
		if err != nil {
			return 0, err
		}
		s, err := StrongScaling(b, size, m, []int{10, 20})
		if err != nil {
			return 0, err
		}
		return float64(s.Result(sim.HPX, 20).MakespanNs) /
			float64(s.Result(sim.HPX, 10).MakespanNs), nil
	}
	noRemote := base
	noRemote.HPXRemoteContentionNs = 0
	noRemote.HPXCrossSocketOverhead = 1
	full, err := utsRatio(base)
	if err != nil {
		return nil, err
	}
	removed, err := utsRatio(noRemote)
	if err != nil {
		return nil, err
	}
	out = append(out, Ablation{
		Name: "remote contention (socket boundary)", Benchmark: "uts",
		Metric: "T(20)/T(10)", Full: full, Removed: removed,
		Effect: "ratio > 1 (slowdown past the socket) only with the term present",
	})

	// 2. Bandwidth saturation off -> Pyramids bandwidth scaling factor
	// from 10 to 20 cores.
	pyrBW := func(m machine.Machine) (float64, error) {
		b, err := inncabs.ByName("pyramids")
		if err != nil {
			return 0, err
		}
		s, err := StrongScaling(b, size, m, []int{10, 20})
		if err != nil {
			return 0, err
		}
		return s.point(20).hpx.bandwidth / s.point(10).hpx.bandwidth, nil
	}
	noBW := base
	noBW.SocketBandwidth = 1e18
	noBW.CrossSocketPenalty = 0
	full, err = pyrBW(base)
	if err != nil {
		return nil, err
	}
	removed, err = pyrBW(noBW)
	if err != nil {
		return nil, err
	}
	out = append(out, Ablation{
		Name: "bandwidth saturation + NUMA penalty", Benchmark: "pyramids",
		Metric: "BW(20)/BW(10)", Full: full, Removed: removed,
		Effect: "the figure-14 flattening (ratio << 2) needs the memory model",
	})

	// 3. Thread-creation cost off -> FFT std/hpx time ratio at 10 cores.
	fftGap := func(m machine.Machine) (float64, error) {
		b, err := inncabs.ByName("fft")
		if err != nil {
			return 0, err
		}
		g := b.TaskGraph(size)
		h, err := sim.Run(sim.Config{Machine: m, Cores: 10, Mode: sim.HPX}, g)
		if err != nil {
			return 0, err
		}
		s, err := sim.Run(sim.Config{Machine: m, Cores: 10, Mode: sim.Std}, g)
		if err != nil {
			return 0, err
		}
		return float64(s.MakespanNs) / float64(h.MakespanNs), nil
	}
	noCreate := base
	noCreate.StdThreadCreateNs = 0
	noCreate.StdCreateContention = 0
	full, err = fftGap(base)
	if err != nil {
		return nil, err
	}
	removed, err = fftGap(noCreate)
	if err != nil {
		return nil, err
	}
	out = append(out, Ablation{
		Name: "pthread creation cost", Benchmark: "fft",
		Metric: "T_std/T_hpx @10 cores", Full: full, Removed: removed,
		Effect: "the headline fine-grain gap is carried by creation cost",
	})
	return out, nil
}

// Ablations renders the ablation table.
func Ablations(w io.Writer, size inncabs.Size, m machine.Machine) error {
	rows, err := RunAblations(size, m)
	if err != nil {
		return err
	}
	table := make([][]string, len(rows))
	for i, a := range rows {
		table[i] = []string{
			a.Name, a.Benchmark, a.Metric,
			fmt.Sprintf("%.2f", a.Full),
			fmt.Sprintf("%.2f", a.Removed),
			a.Effect,
		}
	}
	RenderTable(w,
		fmt.Sprintf("Ablations: cost-model terms vs published effects (%s size)", size),
		[]string{"Removed term", "Benchmark", "Metric", "Full model", "Term removed", "Reading"},
		table)
	return nil
}
