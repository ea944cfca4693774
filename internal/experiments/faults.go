package experiments

import (
	"fmt"
	"time"

	"gesp/internal/dist"
	"gesp/internal/faultsim"
	"gesp/internal/mpisim"
	"gesp/internal/symbolic"
)

// The distributed fault-tolerance ablation: inject one fault class per
// row into the checkpointed distributed factorization and record what
// recovery cost — detection latency, replayed flops, extra messages,
// added virtual time — in the style of the paper's Table 5 overhead
// accounting. The FP-OK column is the headline safety claim: after any
// recovered fault the factors are bit-identical to the fault-free run.

// FaultRow is one (scenario, grid) outcome.
type FaultRow struct {
	Scenario    string
	Grid        string
	Restarts    int
	Checkpoints int
	CkptBytes   int
	DetectMs    float64 // worst virtual fault→detection latency, ms
	ReplayMflop float64 // flops redone because a fault destroyed them
	ExtraMsgs   int64
	AddedMs     float64 // virtual time recovery added, ms
	SimMs       float64 // end-to-end simulated completion time, ms
	BaseMs      float64 // fault-free simulated completion time, ms
	OverPct     float64 // (SimMs-BaseMs)/BaseMs·100
	FPOK        bool    // recovered fingerprint == fault-free fingerprint
}

// backstop caps each simulated run in wall time; it only fires if the
// deterministic watchdog is broken.
const faultsBackstop = 60 * time.Second

// FaultAblation runs the chaos catalogue against the fault-tolerant
// distributed driver on 2×2 and 2×4 grids.
func FaultAblation(seed int64, scale float64) ([]FaultRow, error) {
	n := int(240 * scale)
	if n < 100 {
		n = 100
	}
	a := faultsim.New(seed).WellConditioned(n, 0.05)
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 8})
	if err != nil {
		return nil, fmt.Errorf("experiments: faults symbolic: %w", err)
	}
	b := make([]float64, n)
	a.MatVec(b, onesVec(n))
	st := dist.BuildStructure(sym)

	var rows []FaultRow
	for _, grid := range []mpisim.Grid{{PRow: 2, PCol: 2}, {PRow: 2, PCol: 4}} {
		opts := func() dist.FTOptions {
			g := grid
			return dist.FTOptions{Options: dist.Options{
				Procs: grid.PRow * grid.PCol, Grid: &g,
				EDAGPrune: true, ReplaceTinyPivot: true,
			}}
		}
		base, baseRec, err := dist.SolveFT(a, st, b, opts())
		if err != nil {
			return nil, fmt.Errorf("experiments: faults baseline %s: %w", grid, err)
		}
		baseSim := baseRec.FinishSimTime
		procs := grid.PRow * grid.PCol

		type scenario struct {
			name  string
			chaos *faultsim.Chaos
		}
		deadline := mpisim.DefaultWatchdogDeadline
		scenarios := []scenario{
			{"baseline", nil},
			{"kill-rank", faultsim.NewChaos(seed).
				Kill(1, 0.3*base.Factor.SimTime)},
			{"stall-rank", faultsim.NewChaos(seed).
				Stall(procs-1, 0.5*base.Factor.SimTime, 20*deadline)},
			{"drop-msg", faultsim.NewChaos(seed).Drop(1, 1)},
			{"jitter+dup", faultsim.NewChaos(seed).Jitter(5e-5).Duplicate(0.1)},
		}
		for _, sc := range scenarios {
			o := opts()
			if sc.chaos != nil {
				o.Fault = sc.chaos.WallBackstop(faultsBackstop).Build()
			}
			_, rec, err := dist.SolveFT(a, st, b, o)
			if err != nil {
				return nil, fmt.Errorf("experiments: faults scenario %s on %s did not recover: %w", sc.name, grid, err)
			}
			rows = append(rows, FaultRow{
				Scenario:    sc.name,
				Grid:        grid.String(),
				Restarts:    rec.Restarts,
				Checkpoints: rec.Checkpoints,
				CkptBytes:   rec.CheckpointBytes,
				DetectMs:    rec.DetectLatency * 1e3,
				ReplayMflop: float64(rec.ReplayedFlops) / 1e6,
				ExtraMsgs:   rec.ExtraMessages,
				AddedMs:     rec.AddedSimTime * 1e3,
				SimMs:       rec.FinishSimTime * 1e3,
				BaseMs:      baseSim * 1e3,
				OverPct:     100 * (rec.FinishSimTime - baseSim) / baseSim,
				FPOK:        rec.Fingerprint == baseRec.Fingerprint,
			})
		}
	}
	return rows, nil
}

// FormatFaults lays out the recovery-overhead table. A row whose
// recovered factors differ from the fault-free ones sets Fail.
func FormatFaults(rows []FaultRow) Table {
	fail := ""
	t := tabulate(rows, func(r FaultRow) []any {
		if !r.FPOK && fail == "" {
			fail = fmt.Sprintf("faults: %s on %s recovered factors that differ from the fault-free run", r.Scenario, r.Grid)
		}
		return []any{r.Scenario, r.Grid, r.Restarts, r.Checkpoints, r.DetectMs, r.ReplayMflop,
			r.ExtraMsgs, r.AddedMs, r.SimMs, r.BaseMs, r.OverPct, r.FPOK}
	}, []Col{{"Scenario", -12, ""}, {"Grid", 6, ""}, {"Restarts", 9, ""}, {"Ckpts", 6, ""},
		{"Detect(ms)", 10, "%.3f"}, {"Replay(Mfl)", 12, "%.3f"}, {"ExtraMsg", 10, ""}, {"Added(ms)", 9, "%.3f"},
		{"Sim(ms)", 9, "%.3f"}, {"Base(ms)", 9, "%.3f"}, {"Over(%)", 8, "%.1f"}, {"FP-OK", 6, ""}},
		"Distributed fault tolerance: recovery overhead per injected fault",
		"(checkpointed factorization; FP-OK = recovered factors bit-identical to fault-free):")
	t.Fail = fail
	return t
}
