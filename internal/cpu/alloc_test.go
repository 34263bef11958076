package cpu

import (
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/workload"
)

// These guards are the runtime counterpart of the bpvet hotpath
// analyzer: every function marked //bpvet:hotpath must be alloc-free in
// steady state, and these tests measure that the annotated closures of
// functions — both production loops and each predictor's
// predict/update path — actually allocate nothing once the per-thread
// lazy state (//bpvet:coldinit) has been touched. A regression here
// means an annotation lies or an inline budget broke; fix the code (or
// the annotation), not the test.

// warmRun builds one predictor's cell on one production loop, runs it
// past all cold-start allocation — generator buffers, event rings, lazy
// per-thread predictor state — and returns its 20k-instruction chunk.
// The one-context cell is Figure 1's (FPGA core, gcc and calculix
// time-sharing one context), which runs fastRun1; the SMT cell puts the
// same pair on a gem5 SMT-2 core, which runs the stepper.
func warmRun(pred string, smt bool) func() {
	ctrl := core.NewController(core.OptionsFor(core.NoisyXOR), 7)
	cfg := FPGAConfig()
	if smt {
		cfg = Gem5Config(2)
	}
	c := New(cfg, DefaultScheduler(1_000_000), ctrl, newPred(pred, ctrl))
	c.Assign(
		workload.NewGenerator(workload.MustByName("gcc"), 2000),
		workload.NewGenerator(workload.MustByName("calculix"), 2001),
	)
	run := func() { c.RunTargetInstructions(20_000) }
	if smt {
		run = func() { c.RunTotalInstructions(20_000) }
	}
	c.RunTargetInstructions(200_000)
	return run
}

// TestEnginesSteadyStateAllocFree pins zero allocations per simulated
// chunk on both production loops across every predictor the
// experiments build: <pred>/fast is fastRun1 on the one-context cell,
// <pred>/reference the stepper on the SMT-2 cell.
func TestEnginesSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guards need full warmup")
	}
	for _, pred := range allPredictors {
		for _, smt := range []bool{false, true} {
			name := pred + "/fast"
			if smt {
				name = pred + "/reference"
			}
			t.Run(name, func(t *testing.T) {
				if avg := testing.AllocsPerRun(10, warmRun(pred, smt)); avg != 0 {
					t.Errorf("steady-state run allocates %.1f objects per 20k-instruction chunk, want 0", avg)
				}
			})
		}
	}
}

// TestPredictorPathsAllocFree exercises each predictor's fused
// PredictUpdate directly (the call both loops dispatch per conditional
// branch), bypassing the core, so an allocation is attributable to the
// predictor itself rather than the fetch loop around it.
func TestPredictorPathsAllocFree(t *testing.T) {
	for _, name := range allPredictors {
		t.Run(name, func(t *testing.T) {
			ctrl := core.NewController(core.OptionsFor(core.NoisyXOR), 9)
			dir := newPred(name, ctrl)
			pu, ok := dir.(predictor.PredictUpdater)
			if !ok {
				t.Fatalf("%s does not implement PredictUpdater", name)
			}
			d := core.Domain{Thread: 0, Priv: core.User}
			// Warm the lazy per-thread state and fill the tables.
			pc := uint64(0x4000)
			for i := 0; i < 50_000; i++ {
				pc = 0x4000 + uint64(i%257)*16
				pu.PredictUpdate(d, pc, i%3 != 0)
			}
			i := 0
			avg := testing.AllocsPerRun(2000, func() {
				pc := 0x4000 + uint64(i%257)*16
				pu.PredictUpdate(d, pc, i%3 != 0)
				i++
			})
			if avg != 0 {
				t.Errorf("%s.PredictUpdate allocates %.2f objects per call, want 0", name, avg)
			}
		})
	}
}
