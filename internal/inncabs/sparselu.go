package inncabs

import (
	"sync"

	"repro/internal/sim"
)

// SparseLU: LU factorization of a sparse blocked matrix (the BOTS
// kernel the original suite ports). The matrix is NB×NB blocks of
// BS×BS doubles with a deterministic sparsity pattern; each elimination
// step k runs lu0 on the diagonal block, then forward/backward
// substitutions on row k and column k as one task each, then the bmod
// updates of the trailing submatrix as one task per block, with a join
// per phase. Loop-like, no synchronization inside tasks, coarse grain
// (Table V: 988 µs); Table I counts 11099 tasks.

type sparseluParams struct {
	nb int // blocks per side
	bs int // block dimension
}

func sparseluSize(s Size) sparseluParams {
	switch s {
	case Test:
		return sparseluParams{nb: 6, bs: 8}
	case Small:
		return sparseluParams{nb: 10, bs: 16}
	case Medium:
		return sparseluParams{nb: 20, bs: 24}
	case Huge:
		// Long factorization for cancellation tests.
		return sparseluParams{nb: 48, bs: 64}
	default: // Paper: 50x50 blocks of 100x100; scaled to 30x30 of 32
		return sparseluParams{nb: 30, bs: 32}
	}
}

// blockMatrix is an NB×NB matrix of optional BS×BS blocks; nil means a
// structurally zero block.
type blockMatrix struct {
	nb, bs int
	blocks [][]float64
}

func (m *blockMatrix) at(i, j int) []float64     { return m.blocks[i*m.nb+j] }
func (m *blockMatrix) set(i, j int, b []float64) { m.blocks[i*m.nb+j] = b }

// sparseluInput builds the BOTS-style pattern: the diagonal, first row
// and first column are populated, plus a pseudo-random ~35% of the rest.
func sparseluInput(p sparseluParams) *blockMatrix {
	m := &blockMatrix{nb: p.nb, bs: p.bs, blocks: make([][]float64, p.nb*p.nb)}
	prng := newPRNG(0x51CE)
	for i := 0; i < p.nb; i++ {
		for j := 0; j < p.nb; j++ {
			use := i == j || i == 0 || j == 0 || prng.float64n() < 0.35
			if !use {
				continue
			}
			b := make([]float64, p.bs*p.bs)
			for x := 0; x < p.bs; x++ {
				for y := 0; y < p.bs; y++ {
					b[x*p.bs+y] = prng.float64n()
					if i == j && x == y {
						b[x*p.bs+y] += float64(2 * p.bs) // diagonal dominance
					}
				}
			}
			m.set(i, j, b)
		}
	}
	return m
}

// lu0 factorises a diagonal block in place (Doolittle, no pivoting; the
// input is diagonally dominant).
func lu0(a []float64, bs int) {
	for k := 0; k < bs; k++ {
		for i := k + 1; i < bs; i++ {
			a[i*bs+k] /= a[k*bs+k]
			aik := a[i*bs+k]
			for j := k + 1; j < bs; j++ {
				a[i*bs+j] -= aik * a[k*bs+j]
			}
		}
	}
}

// fwd applies L(diag)^-1 to a row block: solves L*x = b in place.
func fwd(diag, b []float64, bs int) {
	for k := 0; k < bs; k++ {
		for i := k + 1; i < bs; i++ {
			lik := diag[i*bs+k]
			for j := 0; j < bs; j++ {
				b[i*bs+j] -= lik * b[k*bs+j]
			}
		}
	}
}

// bdiv applies U(diag)^-1 from the right to a column block: solves
// x*U = b in place.
func bdiv(diag, b []float64, bs int) {
	for k := 0; k < bs; k++ {
		dkk := diag[k*bs+k]
		for i := 0; i < bs; i++ {
			b[i*bs+k] /= dkk
		}
		for j := k + 1; j < bs; j++ {
			dkj := diag[k*bs+j]
			for i := 0; i < bs; i++ {
				b[i*bs+j] -= b[i*bs+k] * dkj
			}
		}
	}
}

// bmod subtracts row*col from the trailing block, allocating it if it
// was structurally zero (fill-in).
func bmod(row, col, inner []float64, bs int) []float64 {
	if inner == nil {
		inner = make([]float64, bs*bs)
	}
	for i := 0; i < bs; i++ {
		for k := 0; k < bs; k++ {
			cik := col[i*bs+k]
			if cik == 0 {
				continue
			}
			for j := 0; j < bs; j++ {
				inner[i*bs+j] -= cik * row[k*bs+j]
			}
		}
	}
	return inner
}

// sparseluFactor runs the blocked factorization, spawning one task per
// block operation within each dependence level.
func sparseluFactor(rt Runtime, m *blockMatrix) {
	bs := m.bs
	// Each dependence level's fan-out (the substitution phase, then the
	// trailing update) is one batch transaction; Table V's 988 µs grain
	// rides along as the inline hint.
	const sparseluGrainNs = 988 * 1000
	for k := 0; k < m.nb; k++ {
		lu0(m.at(k, k), bs)
		diag := m.at(k, k)
		var phase []func() any
		for j := k + 1; j < m.nb; j++ {
			if b := m.at(k, j); b != nil {
				b := b
				phase = append(phase, func() any { fwd(diag, b, bs); return nil })
			}
		}
		for i := k + 1; i < m.nb; i++ {
			if b := m.at(i, k); b != nil {
				b := b
				phase = append(phase, func() any { bdiv(diag, b, bs); return nil })
			}
		}
		for _, f := range asyncAll(rt, sparseluGrainNs, phase) {
			f.Get()
		}
		var mods []func() any
		for i := k + 1; i < m.nb; i++ {
			col := m.at(i, k)
			if col == nil {
				continue
			}
			for j := k + 1; j < m.nb; j++ {
				row := m.at(k, j)
				if row == nil {
					continue
				}
				i, j := i, j
				mods = append(mods, func() any {
					m.set(i, j, bmod(row, col, m.at(i, j), bs))
					return nil
				})
			}
		}
		for _, f := range asyncAll(rt, sparseluGrainNs, mods) {
			f.Get()
		}
	}
}

// sparseluChecksum sums all entries coarsely rounded (the parallel and
// sequential factorizations perform identical arithmetic, but rounding
// keeps the checksum portable).
func sparseluChecksum(m *blockMatrix) int64 {
	var s float64
	for _, b := range m.blocks {
		for _, v := range b {
			s += v
		}
	}
	return int64(s)
}

func sparseluRun(rt Runtime, size Size) int64 {
	m := sparseluInput(sparseluSize(size))
	sparseluFactor(rt, m)
	return sparseluChecksum(m)
}

// sequentialRuntime runs every Async inline; used for reference results.
type sequentialRuntime struct{}

type readyFuture struct{ v any }

func (f readyFuture) Get() any { return f.v }

// Async implements Runtime by executing fn immediately.
func (sequentialRuntime) Async(fn func() any) Future { return readyFuture{fn()} }

// NewMutex implements Runtime.
func (sequentialRuntime) NewMutex() sync.Locker { return &sync.Mutex{} }

// Name implements Runtime.
func (sequentialRuntime) Name() string { return "sequential" }

func sparseluRef(size Size) int64 {
	m := sparseluInput(sparseluSize(size))
	sparseluFactor(sequentialRuntime{}, m)
	return sparseluChecksum(m)
}

// sparseluGraph: nb elimination steps; step k fans out ~2(nb-k) substitution
// tasks then ~0.35(nb-k)^2 update tasks, each at the 988 µs grain.
func sparseluGraph(size Size) *sim.Graph {
	p := sparseluSize(size)
	nb := p.nb
	if size == Paper {
		nb = 40 // approach the paper's 11k tasks
	}
	work := grainNs(988)
	bytes := taskBytes(sparseluIntensity, work)
	root := &sim.Node{Serial: true}
	for k := 0; k < nb-1; k++ {
		r := nb - 1 - k
		subst := &sim.Node{PreNs: work} // lu0 runs serially before the fan-out
		for t := 0; t < 2*r; t++ {
			subst.Children = append(subst.Children, sim.Leaf(work/2, bytes/2))
		}
		updates := &sim.Node{}
		n := int(float64(r*r)*0.45) + 1
		for t := 0; t < n; t++ {
			updates.Children = append(updates.Children, sim.Leaf(work, bytes))
		}
		// Step k: lu0 + substitutions join, then the trailing updates.
		step := &sim.Node{Serial: true, Children: []*sim.Node{subst, updates}}
		root.Children = append(root.Children, step)
	}
	return &sim.Graph{Label: "sparselu", Root: root}
}

// sparseluIntensity: blocked dgemm-like updates: ~1.5 GB/s per core.
const sparseluIntensity = 1.5e9

var sparseluBenchmark = register(&Benchmark{
	Name:            "sparselu",
	Class:           "Loop Like",
	Sync:            "none",
	Granularity:     "coarse",
	PaperTaskUs:     988,
	PaperStdScaling: "to 20",
	PaperHPXScaling: "to 20",
	MemIntensity:    sparseluIntensity,
	Run:             sparseluRun,
	RefChecksum:     sparseluRef,
	TaskGraph:       sparseluGraph,
})
