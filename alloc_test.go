package xorbp

// Steady-state allocation guards: the tentpole's zero-allocation
// contract for the simulation inner loop, enforced per predictor and
// end-to-end. Lazy per-thread state (TAGE fold banks, scratch) is
// warmed before measuring; after that, Predict/Update and the whole
// cycle loop must not touch the heap — an allocation on these paths
// costs GC pressure across millions of simulated branches per cell.

import (
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/experiment"
	"xorbp/internal/workload"
)

// predictorsUnderTest is the sweep-grid set plus the FPGA prototype.
func predictorsUnderTest() []string {
	return append(experiment.PredictorNames(), "tage")
}

// namedOptions is one isolation configuration under test.
type namedOptions struct {
	name string
	opts core.Options
}

// rotXORFeistel is Noisy-XOR-BP with the strengthened codec and index
// scrambler of §5.4, the configurations that dispatch through the Codec
// and Scrambler interfaces instead of the inline XOR paths.
func rotXORFeistel() core.Options {
	o := core.OptionsFor(core.NoisyXOR)
	o.Codec = core.RotXORCodec{}
	o.Scrambler = core.FeistelScrambler{}
	return o
}

// allocOptions are the isolation configurations the steady-state guard
// covers: every Guard path the predictors' tables take — pass-through,
// owner tracking, the inline XOR codec with and without index
// scrambling, and the interface-dispatched codec and scrambler.
func allocOptions() []namedOptions {
	var out []namedOptions
	for _, m := range []core.Mechanism{core.Baseline, core.NoisyXOR, core.PreciseFlush, core.XOR} {
		out = append(out, namedOptions{m.String(), core.OptionsFor(m)})
	}
	return append(out, namedOptions{"Noisy-XOR-BP+rotxor+feistel", rotXORFeistel()})
}

func TestPredictorSteadyStateAllocs(t *testing.T) {
	for _, o := range allocOptions() {
		for _, name := range predictorsUnderTest() {
			t.Run(o.name+"/"+name, func(t *testing.T) {
				ctrl := core.NewController(o.opts, 1)
				dir := experiment.NewDirPredictor(name, ctrl)
				d := core.Domain{Thread: 0, Priv: core.User}
				step := func(i int) {
					pc := uint64(0x400000 + (i%509)*4)
					taken := i%3 != 0
					dir.Predict(d, pc)
					dir.Update(d, pc, taken)
				}
				for i := 0; i < 4096; i++ { // warm lazy thread state
					step(i)
				}
				i := 0
				avg := testing.AllocsPerRun(200, func() {
					step(i)
					i++
				})
				if avg != 0 {
					t.Fatalf("%s Predict/Update allocates %.1f objects per branch in steady state", name, avg)
				}
			})
		}
	}
}

func TestSimulatorSteadyStateAllocs(t *testing.T) {
	build := func(smt bool) *cpu.Core {
		ctrl := core.NewController(core.OptionsFor(core.NoisyXOR), 1)
		cfg, pred := cpu.FPGAConfig(), "tage"
		if smt {
			cfg, pred = cpu.Gem5Config(2), "ltage"
		}
		dir := experiment.NewDirPredictor(pred, ctrl)
		c := cpu.New(cfg, cpu.DefaultScheduler(200_000), ctrl, dir)
		c.Assign(
			workload.NewGenerator(workload.MustByName("gcc"), 1),
			workload.NewGenerator(workload.MustByName("calculix"), 2),
		)
		return c
	}
	t.Run("single", func(t *testing.T) {
		c := build(false)
		c.RunTargetInstructions(400_000) // warm tables, rings, generator buffers
		avg := testing.AllocsPerRun(20, func() { c.RunTargetInstructions(10_000) })
		if avg != 0 {
			t.Fatalf("single-core inner loop allocates %.1f objects per 10k instructions", avg)
		}
	})
	t.Run("smt2", func(t *testing.T) {
		c := build(true)
		c.RunTotalInstructions(600_000)
		avg := testing.AllocsPerRun(20, func() { c.RunTotalInstructions(10_000) })
		if avg != 0 {
			t.Fatalf("SMT inner loop allocates %.1f objects per 10k instructions", avg)
		}
	})
}
