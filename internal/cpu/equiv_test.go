package cpu

import (
	"reflect"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/gshare"
	"xorbp/internal/perceptron"
	"xorbp/internal/predictor"
	"xorbp/internal/tage"
	"xorbp/internal/tagescl"
	"xorbp/internal/tournament"
	"xorbp/internal/workload"
)

// The equivalence suite: on a one-context core, fastRun1 must be
// byte-identical to the stepper — same cycle counts, same per-thread
// statistics, same controller event counts, same BTB hit rate — for
// every isolation mechanism and every predictor. SMT cores run the
// stepper itself in production, so they have nothing to compare; the
// rendered-table goldens (testdata/golden) pin their values instead.

// allMechanisms are the five §4/§5 configurations.
var allMechanisms = []core.Mechanism{
	core.Baseline, core.CompleteFlush, core.PreciseFlush, core.XOR, core.NoisyXOR,
}

// allPredictors names every direction predictor the experiments build.
var allPredictors = []string{"gshare", "perceptron", "tournament", "ltage", "tage_sc_l", "tage"}

func newPred(name string, ctrl *core.Controller) predictor.DirPredictor {
	switch name {
	case "gshare":
		return gshare.New(gshare.Gem5Config(), ctrl)
	case "perceptron":
		return perceptron.New(perceptron.DefaultConfig(), ctrl)
	case "tournament":
		return tournament.New(tournament.Gem5Config(), ctrl)
	case "ltage":
		return tage.New(tage.LTAGEConfig(), ctrl)
	case "tage_sc_l":
		return tagescl.New(tagescl.Gem5Config(), ctrl)
	case "tage":
		return tage.New(tage.FPGAConfig(), ctrl)
	}
	panic("unknown predictor " + name)
}

// snapshot captures every architecture-visible output of a simulation.
type snapshot struct {
	Elapsed  uint64
	Cycle    uint64
	RR       int
	Threads  [][]ThreadStats
	Active   [][]uint64
	Kernels  []ThreadStats
	Ctx      uint64
	Priv     uint64
	Flushes  uint64
	Rot      uint64
	BTBHit   float64
	BTBOcc   int
	StallEnd []uint64
}

func capture(c *Core, elapsed uint64) snapshot {
	s := snapshot{
		Elapsed: elapsed,
		Cycle:   c.cycle,
		RR:      c.rr,
		BTBHit:  c.BTBUnit().HitRate(),
		BTBOcc:  c.BTBUnit().OccupancyOf(0),
	}
	s.Ctx, s.Priv, s.Flushes, s.Rot = c.Controller().Stats()
	for _, hc := range c.hw {
		var stats []ThreadStats
		var act []uint64
		for _, t := range hc.sw {
			stats = append(stats, t.stats)
			act = append(act, t.activeCycles)
		}
		s.Threads = append(s.Threads, stats)
		s.Active = append(s.Active, act)
		s.Kernels = append(s.Kernels, hc.kernel.stats)
		s.StallEnd = append(s.StallEnd, hc.stallUntil)
	}
	return s
}

// stepUntil runs the stepper — one step() per cycle, the loop SMT cores
// run in production — on any core shape, toward the goal of
// RunTargetInstructionsUntil (targetOnly) or RunTotalInstructionsUntil,
// and returns the elapsed cycles. On a one-context core it is the
// oracle fastRun1 is held against.
func stepUntil(c *Core, targetOnly bool, n, cycLimit uint64) uint64 {
	start := c.cycle
	target := c.hw[0].sw[0]
	goal := target.stats.Instructions + n
	var done uint64
	for c.cycle < cycLimit && (targetOnly && target.stats.Instructions < goal || !targetOnly && done < n) {
		done += c.step()
	}
	return c.cycle - start
}

// stepTarget and stepTotal are RunTargetInstructions and
// RunTotalInstructions on the stepper.
func stepTarget(c *Core, n uint64) uint64 { return stepUntil(c, true, n, NoCycleLimit) }
func stepTotal(c *Core, n uint64) uint64  { return stepUntil(c, false, n, NoCycleLimit) }

// simulate runs the Figure-1 cell shape (FPGA core, gcc and calculix
// time-sharing one context) on run — the production method or its
// stepper twin — and snapshots it, following the experiment runner's
// warmup / reset / measure shape.
func simulate(m core.Mechanism, pred string, run func(*Core, uint64) uint64) snapshot {
	ctrl := core.NewController(core.OptionsFor(m), 42)
	c := New(FPGAConfig(), DefaultScheduler(30_000), ctrl, newPred(pred, ctrl))
	c.Assign(
		workload.NewGenerator(workload.MustByName("gcc"), 1000),
		workload.NewGenerator(workload.MustByName("calculix"), 1001),
	)
	run(c, 60_000)
	c.ResetStats()
	return capture(c, run(c, 150_000))
}

// TestFastEngineEquivalence sweeps mechanism x predictor on the
// one-context core and asserts fastRun1 reproduces the stepper exactly.
// -short trims the grid to the corner cases that exercise every skip
// path (flush mechanisms stall hardest; gshare and tage stand for the
// gem5 and FPGA predictors).
func TestFastEngineEquivalence(t *testing.T) {
	mechs := allMechanisms
	preds := allPredictors
	if testing.Short() {
		mechs = []core.Mechanism{core.Baseline, core.CompleteFlush, core.NoisyXOR}
		preds = []string{"gshare", "tage"}
	}
	for _, m := range mechs {
		for _, pred := range preds {
			t.Run("single/"+m.String()+"/"+pred, func(t *testing.T) {
				step := simulate(m, pred, stepTarget)
				fast := simulate(m, pred, (*Core).RunTargetInstructions)
				if !reflect.DeepEqual(step, fast) {
					t.Fatalf("fastRun1 diverged from the stepper:\nstepper: %+v\nfast:    %+v", step, fast)
				}
			})
		}
	}
}
