package experiment

import (
	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/workload"
)

// Session renders figures and tables at one scale against a shared
// Executor, so figures sharing baselines (7/8/9) do not recompute them.
// Every runner follows the engine's two-phase style: plan the full set of
// simulations a figure needs into a batch, execute the batch (cache-
// deduplicated, fanned across the worker pool), then render rows from the
// resolved results.
type Session struct {
	scale Scale
	exec  *Executor
}

// NewSession creates a session at the given scale with its own executor
// sized to the available CPUs.
func NewSession(scale Scale) *Session {
	return NewSessionWith(scale, NewExecutor(0))
}

// NewSessionWith creates a session backed by an existing executor.
// Sessions sharing an executor share its memo cache: a spec simulated for
// one session is served from cache for every other.
func NewSessionWith(scale Scale, exec *Executor) *Session {
	return &Session{scale: scale, exec: exec}
}

// Scale returns the session's scale.
func (s *Session) Scale() Scale { return s.scale }

// Executor returns the session's run engine.
func (s *Session) Executor() *Executor { return s.exec }

// run resolves a single spec immediately — the one-off convenience path;
// figure runners plan batches instead.
func (s *Session) run(spec runSpec) RunResult {
	spec.scale = s.scale
	return s.exec.RunBatch([]runSpec{spec})[0]
}

// SingleCoreOverhead measures the overhead of opts relative to the
// unprotected baseline for one Table 3 pair on the FPGA single core —
// the engine-cached entry point for one-off comparisons (ablations,
// exploratory sweeps). Both runs resolve through the session's executor,
// so repeated calls share the baseline.
func (s *Session) SingleCoreOverhead(opts core.Options, pair workload.Pair, timer uint64) float64 {
	b := s.batch()
	p := b.overheadPair(singleSpec(baselineOpts(), pair, timer), singleSpec(opts, pair, timer))
	b.exec()
	return p.overhead()
}

// baselineOpts is the unprotected configuration.
func baselineOpts() core.Options { return core.OptionsFor(core.Baseline) }

// figure1CF is Complete Flush as evaluated in Figure 1: flushed only at
// the periodic timer switch, not on syscalls.
func figure1CF() core.Options {
	o := core.OptionsFor(core.CompleteFlush)
	o.FlushOnPrivilege = false
	return o
}

// scopedOpts returns an encoding mechanism limited to a structure set.
func scopedOpts(m core.Mechanism, scope core.Structure) core.Options {
	o := core.OptionsFor(m)
	o.Scope = scope
	return o
}

// singleSpec builds an FPGA single-core run over a Table 3 pair.
func singleSpec(opts core.Options, pair workload.Pair, timer uint64) runSpec {
	return runSpec{
		opts:     opts,
		predName: "tage",
		cfg:      cpu.FPGAConfig(),
		timer:    timer,
		names:    []string{pair.First, pair.Second},
	}
}

// smt2Spec builds a gem5 SMT-2 run.
func smt2Spec(opts core.Options, predName string, pair workload.Pair, timer uint64) runSpec {
	return runSpec{
		opts:     opts,
		predName: predName,
		cfg:      cpu.Gem5Config(2),
		timer:    timer,
		names:    []string{pair.First, pair.Second},
	}
}

// smt4Spec builds a gem5 SMT-4 run.
func smt4Spec(opts core.Options, predName string, quad workload.Quad, timer uint64) runSpec {
	return runSpec{
		opts:     opts,
		predName: predName,
		cfg:      cpu.Gem5Config(4),
		timer:    timer,
		names:    quad.Names[:],
	}
}

// Figure1 reproduces "Performance overhead of flushing branch predictor
// on single-threaded processor" — Complete Flush at the three timer
// periods, averaged over the 12 single-core cases. Paper: all bars below
// ~1%, decreasing with the period.
func (s *Session) Figure1() *Table {
	t := &Table{
		Title:  "Figure 1: Complete Flush overhead, single-threaded core",
		Header: []string{"case", "flush-4M", "flush-8M", "flush-12M"},
		Caption: "Normalized performance overhead vs baseline (no isolation).\n" +
			"Paper shape: average < 1%, shrinking as the flush period grows.",
	}
	pairs := workload.SingleCorePairs()
	b := s.batch()
	plan := make([][3]oPair, len(pairs))
	for pi, pair := range pairs {
		for i, period := range s.scale.TimerPeriods {
			plan[pi][i] = b.overheadPair(
				singleSpec(baselineOpts(), pair, period),
				singleSpec(figure1CF(), pair, period))
		}
	}
	b.exec()

	var avg [3][]float64
	for pi, pair := range pairs {
		row := []string{pair.ID}
		for i := range s.scale.TimerPeriods {
			ov := plan[pi][i].overhead()
			avg[i] = append(avg[i], ov)
			row = append(row, pct(ov))
		}
		t.AddRow(row...)
	}
	t.AddRow("average", pct(mean(avg[0])), pct(mean(avg[1])), pct(mean(avg[2])))
	return t
}

// Figure2 reproduces "Performance overhead of flushing branch history on
// an SMT core": Complete Flush (context + privilege switches) on SMT-2
// and SMT-4. Paper shape: far worse than Figure 1; SMT-4 worse than
// SMT-2.
func (s *Session) Figure2() *Table {
	t := &Table{
		Title:  "Figure 2: Complete Flush overhead on an SMT core",
		Header: []string{"config", "overhead"},
		Caption: "LTAGE predictor, flush on context and privilege switches.\n" +
			"Paper shape: several percent on SMT-2, higher on SMT-4.",
	}
	period := s.scale.TimerPeriods[1]
	pairs := workload.SMTPairs()
	quads := workload.SMTQuads()
	b := s.batch()
	plan2 := make([]oPair, len(pairs))
	for i, pair := range pairs {
		plan2[i] = b.overheadPair(
			smt2Spec(baselineOpts(), "ltage", pair, period),
			smt2Spec(core.OptionsFor(core.CompleteFlush), "ltage", pair, period))
	}
	plan4 := make([]oPair, len(quads))
	for i, quad := range quads {
		plan4[i] = b.overheadPair(
			smt4Spec(baselineOpts(), "ltage", quad, period),
			smt4Spec(core.OptionsFor(core.CompleteFlush), "ltage", quad, period))
	}
	b.exec()

	var smt2, smt4 []float64
	for _, p := range plan2 {
		smt2 = append(smt2, p.overhead())
	}
	for _, p := range plan4 {
		smt4 = append(smt4, p.overhead())
	}
	t.AddRow("SMT-2", pct(mean(smt2)))
	t.AddRow("SMT-4", pct(mean(smt4)))
	return t
}

// Figure3 reproduces "Comparison between Complete Flush and Precise Flush
// in SMT-2". Paper shape: Precise Flush lower but still elevated.
func (s *Session) Figure3() *Table {
	t := &Table{
		Title:  "Figure 3: Complete vs Precise Flush, SMT-2",
		Header: []string{"case", "CompleteFlush", "PreciseFlush"},
		Caption: "LTAGE predictor. Paper shape: PF < CF, both well above\n" +
			"the single-threaded core's cost.",
	}
	period := s.scale.TimerPeriods[1]
	pairs := workload.SMTPairs()
	b := s.batch()
	type cell struct{ cf, pf oPair } // both share the pair's baseline (dedup'd)
	plan := make([]cell, len(pairs))
	for i, pair := range pairs {
		base := smt2Spec(baselineOpts(), "ltage", pair, period)
		plan[i] = cell{
			cf: b.overheadPair(base, smt2Spec(core.OptionsFor(core.CompleteFlush), "ltage", pair, period)),
			pf: b.overheadPair(base, smt2Spec(core.OptionsFor(core.PreciseFlush), "ltage", pair, period)),
		}
	}
	b.exec()

	var cfAll, pfAll []float64
	for i, pair := range pairs {
		co := plan[i].cf.overhead()
		po := plan[i].pf.overhead()
		cfAll = append(cfAll, co)
		pfAll = append(pfAll, po)
		t.AddRow(pair.ID, pct(co), pct(po))
	}
	t.AddRow("average", pct(mean(cfAll)), pct(mean(pfAll)))
	return t
}

// figureScoped runs the Figure 7/8/9 family: XOR and Noisy-XOR limited to
// a structure scope on the FPGA core, per case and timer period.
func (s *Session) figureScoped(title string, scope core.Structure, shape string) *Table {
	label := scope.String()
	t := &Table{
		Title: title,
		Header: []string{"case",
			"XOR-" + label + "-4M", "XOR-" + label + "-8M", "XOR-" + label + "-12M",
			"Noisy-XOR-" + label + "-4M", "Noisy-XOR-" + label + "-8M", "Noisy-XOR-" + label + "-12M"},
		Caption: shape,
	}
	pairs := workload.SingleCorePairs()
	b := s.batch()
	plan := make([][6]oPair, len(pairs))
	for pi, pair := range pairs {
		col := 0
		for _, mech := range []core.Mechanism{core.XOR, core.NoisyXOR} {
			for _, period := range s.scale.TimerPeriods {
				plan[pi][col] = b.overheadPair(
					singleSpec(baselineOpts(), pair, period),
					singleSpec(scopedOpts(mech, scope), pair, period))
				col++
			}
		}
	}
	b.exec()

	var avgs [6][]float64
	for pi, pair := range pairs {
		row := []string{pair.ID}
		for col := 0; col < 6; col++ {
			ov := plan[pi][col].overhead()
			avgs[col] = append(avgs[col], ov)
			row = append(row, pct(ov))
		}
		t.AddRow(row...)
	}
	avgRow := []string{"average"}
	for col := 0; col < 6; col++ {
		avgRow = append(avgRow, pct(mean(avgs[col])))
	}
	t.AddRow(avgRow...)
	return t
}

// Figure7 reproduces "Performance overhead of XOR-BTB and Noisy-XOR-BTB".
// Paper shape: average < 0.2%, worst ≈ 1% (case6), case2 slightly
// negative.
func (s *Session) Figure7() *Table {
	return s.figureScoped(
		"Figure 7: XOR-BTB / Noisy-XOR-BTB overhead (single-threaded core)",
		core.StructBTB,
		"Paper shape: average < 0.2%; case6 worst (~1%); case2 can go negative\n"+
			"(BTB loss overturns wrong direction predictions via fall-through).")
}

// Figure8 reproduces "Performance overhead of XOR-PHT and Noisy-XOR-PHT".
// Paper shape: average < 1.1%, case1 worst (~2.5%), decreasing slightly
// with longer switch periods.
func (s *Session) Figure8() *Table {
	return s.figureScoped(
		"Figure 8: XOR-PHT / Noisy-XOR-PHT overhead (single-threaded core)",
		core.StructPHT,
		"Paper shape: average < 1.1%; case1 worst (~2.5%).")
}

// Figure9 reproduces "Performance overhead of XOR-BP and Noisy-XOR-BP"
// (both structures protected). Paper shape: average < 1.3%, worst ≈ 2.5%
// (case1), largely insensitive to the timer period because privilege
// switches dominate (Table 4).
func (s *Session) Figure9() *Table {
	return s.figureScoped(
		"Figure 9: XOR-BP / Noisy-XOR-BP overhead (single-threaded core)",
		core.StructAll,
		"Paper shape: average < 1.3%; worst ~2.5% (case1); flat across timer\n"+
			"periods because privilege switches dominate key rotations.")
}

// RekeyPeriods returns the geometric re-key period ladder the sweep
// measures: eight periods from 1/256th to 1/2 of the scale's total
// single-core instruction budget (in cycles — the simulated CPI is
// below 1, so the short periods re-key many times per run and the long
// ones a handful). The ladder is a pure function of the scale, so every
// invocation sweeps identical cells and a rerun replays them from the
// run cache.
func (s *Session) RekeyPeriods() []uint64 {
	t := s.scale.WarmupInstr + s.scale.MeasureInstr
	ps := make([]uint64, 8)
	for k := range ps {
		ps[k] = t >> (8 - k)
	}
	return ps
}

// rekeyOpts is Noisy-XOR-BP re-keyed every period cycles, on top of the
// event-driven rotations it already performs.
func rekeyOpts(period uint64) core.Options {
	o := core.OptionsFor(core.NoisyXOR)
	o.RekeyPeriod = period
	return o
}

// RekeySweep measures the performance cost of periodic re-keying:
// Noisy-XOR-BP with a forced key rotation every P cycles, for the
// RekeyPeriods ladder, against the same unprotected baselines as
// Figures 7-9. The paper re-keys on isolation events only (§5); this
// sweep quantifies the cost of the natural hardening extension — a
// wall-clock re-key bounding any key's lifetime — and is the
// demonstrator for the executor's prefix-sharing fork path: the eight
// cells of each case differ only in RekeyPeriod, so they form one
// divergence family and share each prefix simulation.
func (s *Session) RekeySweep() *Table {
	periods := s.RekeyPeriods()
	header := []string{"case"}
	for _, p := range periods {
		header = append(header, fmtCount(p))
	}
	t := &Table{
		Title:  "Re-key period sweep: Noisy-XOR-BP with periodic key rotation",
		Header: header,
		Caption: "Overhead vs baseline per forced re-key period (cycles).\n" +
			"Expected shape: overhead decays toward the event-driven cost\n" +
			"as the period grows and rotations become rare.",
	}
	timer := s.scale.TimerPeriods[1]
	pairs := workload.SingleCorePairs()
	b := s.batch()
	plan := make([][]oPair, len(pairs))
	for pi, pair := range pairs {
		plan[pi] = make([]oPair, len(periods))
		for i, p := range periods {
			plan[pi][i] = b.overheadPair(
				singleSpec(baselineOpts(), pair, timer),
				singleSpec(rekeyOpts(p), pair, timer))
		}
	}
	b.exec()

	avgs := make([][]float64, len(periods))
	for pi, pair := range pairs {
		row := []string{pair.ID}
		for i := range periods {
			ov := plan[pi][i].overhead()
			avgs[i] = append(avgs[i], ov)
			row = append(row, pct(ov))
		}
		t.AddRow(row...)
	}
	avgRow := []string{"average"}
	for i := range periods {
		avgRow = append(avgRow, pct(mean(avgs[i])))
	}
	t.AddRow(avgRow...)
	return t
}

// Figure10 reproduces "Performance cost of three isolation mechanisms on
// four different predictors on an SMT core". Paper shape: Noisy-XOR-BP
// beats both flushes (26–37% lower loss than CF on average); more
// accurate predictors pay more on average (2.3% → 4.9%).
func (s *Session) Figure10() *Table {
	preds := PredictorNames()
	mechs := []core.Mechanism{core.CompleteFlush, core.PreciseFlush, core.NoisyXOR}
	header := []string{"case"}
	for _, p := range preds {
		header = append(header, p+"-CF", p+"-PF", p+"-NXOR")
	}
	t := &Table{
		Title:  "Figure 10: isolation mechanisms x predictors, SMT-2",
		Header: header,
		Caption: "Overhead vs the same predictor without protection.\n" +
			"Paper shape: NXOR < PF < CF on average; cost grows with\n" +
			"predictor accuracy (gshare -> tage_sc_l).",
	}
	period := s.scale.TimerPeriods[1]
	pairs := workload.SMTPairs()
	b := s.batch()
	// plan[i][j][k]: pair i, predictor j, mechanism k; the three
	// mechanisms share the (pair, predictor) baseline via dedup.
	plan := make([][][3]oPair, len(pairs))
	for i, pair := range pairs {
		plan[i] = make([][3]oPair, len(preds))
		for j, p := range preds {
			base := smt2Spec(baselineOpts(), p, pair, period)
			for k, mech := range mechs {
				plan[i][j][k] = b.overheadPair(base, smt2Spec(core.OptionsFor(mech), p, pair, period))
			}
		}
	}
	b.exec()

	sums := make(map[string][]float64)
	for i, pair := range pairs {
		row := []string{pair.ID}
		for j, p := range preds {
			for k, mech := range mechs {
				ov := plan[i][j][k].overhead()
				sums[p+"-"+mech.String()] = append(sums[p+"-"+mech.String()], ov)
				row = append(row, pct(ov))
			}
		}
		t.AddRow(row...)
	}
	avgRow := []string{"average"}
	for _, p := range preds {
		for _, mech := range mechs {
			avgRow = append(avgRow, pct(mean(sums[p+"-"+mech.String()])))
		}
	}
	t.AddRow(avgRow...)
	return t
}
