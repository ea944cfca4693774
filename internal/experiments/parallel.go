package experiments

import (
	"fmt"

	"gesp/internal/core"
	"gesp/internal/dist"
	"gesp/internal/matgen"
	"gesp/internal/mpisim"
	"gesp/internal/ordering"
	"gesp/internal/sparse"
)

// DefaultProcs is the processor sweep of the paper's Tables 3 and 4.
var DefaultProcs = []int{4, 8, 16, 32, 64, 128, 256, 512}

// Table2Row describes one of the eight large parallel test matrices.
type Table2Row struct {
	Name     string
	N        int
	NnzA     int
	NnzLU    int
	Flops    int64
	StrSym   float64
	NumSym   float64
	AvgSuper float64
}

// Table2 reproduces the paper's Table 2: characteristics of the parallel
// testbed, including the structural/numeric symmetry fractions.
func Table2(scale float64) []Table2Row {
	var rows []Table2Row
	for _, m := range matgen.ParallelTestbed() {
		a := m.Generate(scale)
		sym := sparse.SymmetryOf(a)
		s, err := core.NewAnalysis(a, core.DefaultOptions())
		row := Table2Row{
			Name: m.Name, N: a.Rows, NnzA: a.Nnz(),
			StrSym: sym.Str, NumSym: sym.Num,
		}
		if err == nil {
			st := s.Stats()
			row.NnzLU = st.NnzLU
			row.Flops = st.Flops
			row.AvgSuper = st.AvgSuper
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable2 lays out Table 2.
func FormatTable2(rows []Table2Row, scale float64) Table {
	return tabulate(rows, func(r Table2Row) []any {
		return []any{r.Name, r.N, r.NnzA, r.NnzLU, r.Flops, r.StrSym, r.NumSym, r.AvgSuper}
	}, []Col{{"Matrix", -10, ""}, {"n", 8, ""}, {"nnz(A)", 10, ""}, {"nnz(L+U)", 12, ""}, {"flops", 12, ""},
		{"StrSym", 7, "%.2f"}, {"NumSym", 7, "%.2f"}, {"avgSup", 8, "%.1f"}},
		fmt.Sprintf("Table 2: characteristics of the parallel test matrices (scale=%.2f)", scale))
}

// ScalingCell is one (matrix, P) measurement of the distributed runs.
type ScalingCell struct {
	Procs        int
	FactorTime   float64 // simulated seconds (Table 3)
	FactorMflops float64
	SolveTime    float64 // simulated seconds (Table 4)
	SolveMflops  float64
	LoadBalance  float64 // Table 5 (factor phase)
	SolveBalance float64
	FactorComm   float64 // Table 5: fraction of time in communication
	SolveComm    float64
	Messages     int64
	Err          float64
}

// ScalingRow is the processor sweep for one matrix.
type ScalingRow struct {
	Name     string
	N        int
	AvgSuper float64
	Cells    []ScalingCell
}

// Progress, when non-nil, receives one line per completed configuration
// (cmd/gesp-bench points it at stderr so long sweeps are observable).
var Progress func(format string, args ...any)

func progress(format string, args ...any) {
	if Progress != nil {
		Progress(format, args...)
	}
}

// RunScaling runs the distributed factorization and solves for the
// parallel testbed over the processor sweep; it backs Tables 3, 4 and 5.
func RunScaling(scale float64, procs []int, pipeline, prune bool) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, m := range matgen.ParallelTestbed() {
		a := m.Generate(scale)
		s, err := core.NewAnalysis(a, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		progress("%s: n=%d nnz(L+U)=%d flops=%.3g", m.Name, a.Rows, s.Stats().NnzLU, float64(s.Stats().Flops))
		b, ones := matgen.OnesRHS(a), onesVec(a.Rows)
		row := ScalingRow{Name: m.Name, N: a.Rows, AvgSuper: s.Stats().AvgSuper}
		for _, p := range procs {
			x, res, err := s.DistSolve(b, dist.Options{
				Procs: p, Pipeline: pipeline, EDAGPrune: prune, ReplaceTinyPivot: true,
			})
			if err != nil {
				return nil, fmt.Errorf("%s P=%d: %w", m.Name, p, err)
			}
			progress("  %s P=%d: factor %.3fs solve %.4fs (simulated)", m.Name, p, res.Factor.SimTime, res.Solve.SimTime)
			row.Cells = append(row.Cells, ScalingCell{
				Procs:        p,
				FactorTime:   res.Factor.SimTime,
				FactorMflops: res.Factor.Mflops,
				SolveTime:    res.Solve.SimTime,
				SolveMflops:  res.Solve.Mflops,
				LoadBalance:  res.Factor.LoadBalance,
				SolveBalance: res.Solve.LoadBalance,
				FactorComm:   res.Factor.CommFraction,
				SolveComm:    res.Solve.CommFraction,
				Messages:     res.Factor.Messages,
				Err:          sparse.RelErrInf(x, ones),
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 lays out factorization time and peak Mflop rate per
// matrix.
func FormatTable3(rows []ScalingRow, procs []int) Table {
	return sweepTable("Table 3: LU factorization, simulated seconds on the modelled T3E-900", rows, procs, "%.3f", "%.0f",
		func(c ScalingCell) (float64, float64) { return c.FactorTime, c.FactorMflops })
}

// FormatTable4 lays out the triangular solve sweep.
func FormatTable4(rows []ScalingRow, procs []int) Table {
	return sweepTable("Table 4: triangular solves, simulated seconds (paper: flattens beyond 64 PEs)", rows, procs, "%.4f", "%.1f",
		func(c ScalingCell) (float64, float64) { return c.SolveTime, c.SolveMflops })
}

// sweepTable lays out one time per processor count and the rate at the
// largest count, per matrix.
func sweepTable(title string, rows []ScalingRow, procs []int, timeFmt, rateFmt string, of func(ScalingCell) (time, mflops float64)) Table {
	cols := []Col{{"Matrix", -10, ""}}
	for _, p := range procs {
		cols = append(cols, Col{fmt.Sprintf("P=%d", p), 9, timeFmt})
	}
	return tabulate(rows, func(r ScalingRow) []any {
		row := []any{r.Name}
		for _, c := range r.Cells {
			tm, _ := of(c)
			row = append(row, tm)
		}
		_, rate := of(r.Cells[len(r.Cells)-1])
		return append(row, rate)
	}, append(cols, Col{"Mflops@max", 10, rateFmt}), title)
}

// FormatTable5 lays out load balance and communication fractions at
// one processor count (the paper uses 64). If p is not in the sweep,
// the largest swept count not exceeding p is shown (else the first), so
// the table is never silently empty.
func FormatTable5(rows []ScalingRow, procs []int, p int) Table {
	var title []string
	idx := 0
	for i, pp := range procs {
		if pp <= p {
			idx = i
		}
		if pp == p {
			break
		}
	}
	if len(procs) > 0 && procs[idx] != p {
		title = append(title, fmt.Sprintf("(requested P=%d not in the sweep; showing P=%d)", p, procs[idx]))
		p = procs[idx]
	}
	title = append(title, fmt.Sprintf("Table 5: load balance factor B and %%time in communication on %d PEs", p),
		"(paper: B good except TWOTONE; comm >50% in factor, >95% in solve)")
	return tabulate(rows, func(r ScalingRow) []any {
		c := r.Cells[idx]
		return []any{r.Name, c.LoadBalance, c.SolveBalance, 100 * c.FactorComm, 100 * c.SolveComm, r.AvgSuper}
	}, []Col{{"Matrix", -10, ""}, {"B(fact)", 8, "%.2f"}, {"B(solve)", 8, "%.2f"},
		{"comm(fact)", 10, "%.1f%%"}, {"comm(solve)", 10, "%.1f%%"}, {"avgSup", 8, "%.1f"}}, title...)
}

// AblationResult compares a toggled feature on one matrix / processor
// count.
type AblationResult struct {
	Name          string
	Procs         int
	BaseMessages  int64
	OnMessages    int64
	BaseTime      float64
	OnTime        float64
	BaseSolveTime float64
	OnSolveTime   float64
}

// analysis generates the named testbed matrix at scale and analyses it
// under the default options as changed by set (when not nil); b is A·1.
func analysis(name string, scale float64, set func(*core.Options)) (s *core.Solver, b []float64, err error) {
	m, ok := matgen.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown matrix %s", name)
	}
	a := m.Generate(scale)
	opts := core.DefaultOptions()
	if set != nil {
		set(&opts)
	}
	s, err = core.NewAnalysis(a, opts)
	return s, matgen.OnesRHS(a), err
}

func runPair(name string, scale float64, procs int, base, on dist.Options) (AblationResult, error) {
	s, b, err := analysis(name, scale, nil)
	if err != nil {
		return AblationResult{}, err
	}
	base.Procs, on.Procs = procs, procs
	base.ReplaceTinyPivot, on.ReplaceTinyPivot = true, true
	_, r1, err := s.DistSolve(b, base)
	if err != nil {
		return AblationResult{}, err
	}
	_, r2, err := s.DistSolve(b, on)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name: name, Procs: procs,
		BaseMessages: r1.Factor.Messages, OnMessages: r2.Factor.Messages,
		BaseTime: r1.Factor.SimTime, OnTime: r2.Factor.SimTime,
		BaseSolveTime: r1.Solve.SimTime, OnSolveTime: r2.Solve.SimTime,
	}, nil
}

// EDAGAblation measures the message reduction from EDAG-pruned
// communication (paper: 16% fewer messages for AF23560 on 32 PEs).
func EDAGAblation(name string, scale float64, procs int) (AblationResult, error) {
	return runPair(name, scale, procs,
		dist.Options{Pipeline: true},
		dist.Options{Pipeline: true, EDAGPrune: true})
}

// PipelineAblation measures the pipelining speedup (paper: 10–40% on 64
// PEs).
func PipelineAblation(name string, scale float64, procs int) (AblationResult, error) {
	return runPair(name, scale, procs,
		dist.Options{EDAGPrune: true},
		dist.Options{EDAGPrune: true, Pipeline: true})
}

// FormatAblation lays out one ablation pair.
func FormatAblation(label string, r AblationResult) Table {
	return Table{Title: []string{
		fmt.Sprintf("%s on %s, P=%d:", label, r.Name, r.Procs),
		fmt.Sprintf("  factor messages : %d -> %d (%.1f%% fewer)",
			r.BaseMessages, r.OnMessages, pctLess(float64(r.BaseMessages), float64(r.OnMessages))),
		fmt.Sprintf("  factor sim time : %.4fs -> %.4fs (%.1f%% faster)",
			r.BaseTime, r.OnTime, pctLess(r.BaseTime, r.OnTime)),
	}}
}

// pctLess is how much smaller on is than base, in percent of base; 0
// when base is not positive, so an empty baseline never reads NaN or Inf.
func pctLess(base, on float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - on) / base
}

// pipelined is the distributed solve the sweeps run: pipelining and
// EDAG pruning on, tiny pivots replaced.
func pipelined(procs int) dist.Options {
	return dist.Options{Procs: procs, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true}
}

// BlockSizeSweep measures factorization time against the maximum block
// size (the paper found 20–30 best on the T3E and used 24).
type BlockSizeResult struct {
	MaxSuper   int
	FactorTime float64
	AvgSuper   float64
}

// BlockSizeAblation sweeps the supernode splitting threshold.
func BlockSizeAblation(name string, scale float64, procs int, sizes []int) ([]BlockSizeResult, error) {
	var out []BlockSizeResult
	for _, bs := range sizes {
		s, b, err := analysis(name, scale, func(o *core.Options) { o.MaxSuper = bs })
		if err != nil {
			return nil, err
		}
		_, res, err := s.DistSolve(b, pipelined(procs))
		if err != nil {
			return nil, err
		}
		out = append(out, BlockSizeResult{MaxSuper: bs, FactorTime: res.Factor.SimTime, AvgSuper: s.Stats().AvgSuper})
	}
	return out, nil
}

// FormatBlockSize lays out the block size sweep.
func FormatBlockSize(rows []BlockSizeResult) Table {
	return tabulate(rows, func(r BlockSizeResult) []any { return []any{r.MaxSuper, r.FactorTime, r.AvgSuper} },
		[]Col{{"maxSuper", 8, ""}, {"factor(s)", 12, "%.4f"}, {"avgSup", 10, "%.1f"}},
		"Maximum block size sweep (paper: 20-30 best on the T3E, 24 used):")
}

// orderingMethods are the heuristics OrderingAblation compares, in
// column order.
var orderingMethods = []ordering.Method{ordering.MinDegATA, ordering.MinDegAPlusAT, ordering.RCM, ordering.NDATA, ordering.Natural}

// OrderingAblationRow compares fill across ordering heuristics.
type OrderingAblationRow struct {
	Name  string
	Fill  map[string]int
	Flops map[string]int64
}

// OrderingAblation compares the fill-reducing orderings on a matrix
// subset (the design decision behind step (2)).
func OrderingAblation(names []string, scale float64) ([]OrderingAblationRow, error) {
	var rows []OrderingAblationRow
	for _, name := range names {
		row := OrderingAblationRow{Name: name, Fill: map[string]int{}, Flops: map[string]int64{}}
		for _, mm := range orderingMethods {
			s, _, err := analysis(name, scale, func(o *core.Options) { o.Ordering = mm })
			if err != nil {
				return nil, err
			}
			row.Fill[mm.String()] = s.Stats().NnzLU
			row.Flops[mm.String()] = s.Stats().Flops
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatOrdering lays out the fill of every ordering heuristic.
func FormatOrdering(rows []OrderingAblationRow) Table {
	cols := []Col{{"Matrix", -10, ""}}
	for _, m := range orderingMethods {
		cols = append(cols, Col{m.String(), 12, ""})
	}
	return tabulate(rows, func(r OrderingAblationRow) []any {
		row := []any{r.Name}
		for _, m := range orderingMethods {
			row = append(row, r.Fill[m.String()])
		}
		return row
	}, cols, "Fill-reducing ordering comparison, nnz(L+U):")
}

// RelaxResult measures supernode amalgamation (paper §5: "uniprocessor
// performance can be improved by amalgamating small supernodes").
type RelaxResult struct {
	Relax      int
	AvgSuper   float64
	NumSuper   int
	FactorTime float64 // simulated, distributed
}

// RelaxAblation sweeps the amalgamation slack on one matrix.
func RelaxAblation(name string, scale float64, procs int, relaxes []int) ([]RelaxResult, error) {
	var out []RelaxResult
	for _, rx := range relaxes {
		s, b, err := analysis(name, scale, func(o *core.Options) { o.Relax = rx })
		if err != nil {
			return nil, err
		}
		_, res, err := s.DistSolve(b, pipelined(procs))
		if err != nil {
			return nil, err
		}
		st := s.Stats()
		out = append(out, RelaxResult{Relax: rx, AvgSuper: st.AvgSuper, NumSuper: st.NumSuper, FactorTime: res.Factor.SimTime})
	}
	return out, nil
}

// FormatRelax lays out the amalgamation sweep.
func FormatRelax(rows []RelaxResult) Table {
	return tabulate(rows, func(r RelaxResult) []any { return []any{r.Relax, r.AvgSuper, r.NumSuper, r.FactorTime} },
		[]Col{{"relax", 8, ""}, {"avgSup", 10, "%.2f"}, {"#sup", 10, ""}, {"factor(s)", 12, "%.4f"}},
		"Supernode amalgamation sweep (paper 5: amalgamate small supernodes):")
}

// RedistResult compares the 1-D -> 2-D redistribution cost against the
// factorization (the paper's future-work input interface).
type RedistResult struct {
	Name        string
	RedistTime  float64
	FactorTime  float64
	RedistMsgs  int64
	RedistBytes int64
}

// RedistAblation measures the redistribution phase on the parallel
// testbed at one processor count.
func RedistAblation(scale float64, procs int) ([]RedistResult, error) {
	var out []RedistResult
	for _, m := range matgen.ParallelTestbed() {
		a := m.Generate(scale)
		s, err := core.NewAnalysis(a, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		ap, sym := s.PermutedMatrix(), s.Symbolic()
		res, redist, err := dist.SolveFrom1D(ap, dist.BuildStructure(sym), onesVec(ap.Rows), dist.Uniform1D(ap.Rows, procs), pipelined(procs))
		if err != nil {
			return nil, err
		}
		out = append(out, RedistResult{
			Name: m.Name, RedistTime: redist.SimTime, FactorTime: res.Factor.SimTime,
			RedistMsgs: redist.Messages, RedistBytes: redist.Volume,
		})
	}
	return out, nil
}

// FormatRedist lays out the redistribution cost on procs processes.
func FormatRedist(rows []RedistResult, procs int) Table {
	return tabulate(rows, func(r RedistResult) []any {
		return []any{r.Name, r.RedistTime, r.FactorTime, r.RedistMsgs, r.RedistBytes}
	}, []Col{{"Matrix", -10, ""}, {"redist(s)", 12, "%.4f"}, {"factor(s)", 12, "%.4f"}, {"msgs", 10, ""}, {"bytes", 12, ""}},
		fmt.Sprintf("1-D to 2-D redistribution cost vs factorization (future-work input interface), P=%d:", procs))
}

// GridShapeResult compares process-grid shapes at a fixed processor
// count: the paper argues the 2-D block-cyclic layout beats the more
// natural 1-D decomposition on locality, load balance and volume.
type GridShapeResult struct {
	Shape      string
	FactorTime float64
	SolveTime  float64
	Volume     int64
	Balance    float64
}

// GridShapeAblation runs 1×P (1-D columns), near-square, and P×1 (1-D
// rows) grids on one matrix.
func GridShapeAblation(name string, scale float64, procs int) ([]GridShapeResult, error) {
	s, b, err := analysis(name, scale, nil)
	if err != nil {
		return nil, err
	}
	shapes := []mpisim.Grid{{PRow: 1, PCol: procs}, mpisim.NewGrid(procs), {PRow: procs, PCol: 1}}
	var out []GridShapeResult
	for i := range shapes {
		o := pipelined(procs)
		o.Grid = &shapes[i]
		_, res, err := s.DistSolve(b, o)
		if err != nil {
			return nil, err
		}
		out = append(out, GridShapeResult{
			Shape: shapes[i].String(), FactorTime: res.Factor.SimTime, SolveTime: res.Solve.SimTime,
			Volume: res.Factor.Volume, Balance: res.Factor.LoadBalance,
		})
	}
	return out, nil
}

// FormatGridShape lays out the grid shapes on procs processes.
func FormatGridShape(rows []GridShapeResult, procs int) Table {
	return tabulate(rows, func(r GridShapeResult) []any { return []any{r.Shape, r.FactorTime, r.SolveTime, r.Volume, r.Balance} },
		[]Col{{"grid", 8, ""}, {"factor(s)", 12, "%.4f"}, {"solve(s)", 12, "%.4f"}, {"volume(bytes)", 14, ""}, {"B", 8, "%.2f"}},
		fmt.Sprintf("Process-grid shape on %d PEs (paper: 2-D beats the natural 1-D layout):", procs))
}
