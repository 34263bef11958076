package experiment

import (
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/workload"
)

// noSyscalls clears every syscall from a program's event stream. It
// hides the generator's batch method, so the core pulls events through
// Next and sees none.
type noSyscalls struct{ workload.Program }

func (p noSyscalls) Next(ev *workload.BranchEvent) {
	p.Program.Next(ev)
	ev.Syscall = false
}

// TestFlushEqualsBaselineWithoutEvents is a metamorphic invariant: a
// lone software thread that makes no syscall, under a timer period
// longer than the run, raises no isolation event, so Complete Flush and
// Precise Flush never act and must simulate exactly what Baseline does,
// on every predictor. The encoding mechanisms are deliberately absent:
// their tables decode under a domain key even with zero events, so
// they differ from Baseline without any switch.
func TestFlushEqualsBaselineWithoutEvents(t *testing.T) {
	benchmarks := []string{"gcc", "gromacs", "mcf"}
	if testing.Short() {
		benchmarks = benchmarks[:1]
	}
	const instr = 1_000_000
	const neverFires = 1 << 62 // timer period: no interrupt within the run
	predictors := append(PredictorNames(), "tage")
	for _, bench := range benchmarks {
		for _, pred := range predictors {
			type outcome struct {
				cycles uint64
				stats  cpu.ThreadStats
			}
			var base outcome
			for _, m := range []core.Mechanism{core.Baseline, core.CompleteFlush, core.PreciseFlush} {
				ctrl := core.NewController(core.OptionsFor(m), 1)
				c := cpu.New(cpu.FPGAConfig(), cpu.DefaultScheduler(neverFires), ctrl, NewDirPredictor(pred, ctrl))
				c.Assign(noSyscalls{workload.NewGenerator(workload.MustByName(bench), 1000)})
				c.RunTargetInstructions(instr)
				got := outcome{c.Cycles(), c.ThreadStatsOf(0, 0)}
				if ctx, priv, flushes, rotations := ctrl.Stats(); ctx|priv|flushes|rotations != 0 {
					t.Fatalf("%s/%s/%v: controller saw events: ctx %d, priv %d, flushes %d, rotations %d",
						bench, pred, m, ctx, priv, flushes, rotations)
				}
				if got.stats.Instructions < instr || got.stats.Syscalls != 0 {
					t.Fatalf("%s/%s/%v: ran %d instructions with %d syscalls",
						bench, pred, m, got.stats.Instructions, got.stats.Syscalls)
				}
				if m == core.Baseline {
					base = got
				} else if got != base {
					t.Errorf("%s/%s: %v = %+v, Baseline = %+v", bench, pred, m, got, base)
				}
			}
		}
	}
}
