package cpu

import (
	"sort"
	"testing"
	"time"

	"xorbp/internal/core"
	"xorbp/internal/trace"
	"xorbp/internal/workload"
)

// gateCell is one one-context cell of the fastRun1 speed gate.
type gateCell struct {
	name   string
	pred   string
	mech   core.Mechanism
	pair   [2]string
	replay bool // drive both threads from 60k-event trace recordings
}

// timeCell builds a fresh Figure-1 core for the cell, warms it for 200k
// target instructions on run, and returns the wall time of the next 1M.
func timeCell(t *testing.T, g gateCell, run func(*Core, uint64) uint64) time.Duration {
	t.Helper()
	ctrl := core.NewController(core.OptionsFor(g.mech), 1)
	c := New(FPGAConfig(), DefaultScheduler(1_000_000), ctrl, newPred(g.pred, ctrl))
	for i, n := range g.pair {
		var p workload.Program = workload.NewGenerator(workload.MustByName(n), 1000+uint64(i))
		if g.replay {
			rec, err := trace.Record(p, 60_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			p = rec
		}
		c.Assign(p)
	}
	run(c, 200_000)
	start := time.Now()
	run(c, 1_000_000)
	return time.Since(start)
}

// TestFastRun1Gate is the speed gate that justifies keeping fastRun1
// next to the stepper: over seven single-context cells — the Figure-1
// core under tage and gshare, three mechanisms, two workload pairs and
// one trace-replay cell — the mean stepper/fastRun1 wall-time ratio
// must not drop below 1.0. Each cell runs the two loops in interleaved
// pairs and takes the median ratio of three rounds, so host drift hits
// both sides alike. Timing only, hence skipped under -short; CI's
// benchmark job runs it.
func TestFastRun1Gate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; run without -short")
	}
	cells := []gateCell{
		{"single/tage/gcc/baseline", "tage", core.Baseline, [2]string{"gcc", "calculix"}, false},
		{"single/tage/gcc/complete-flush", "tage", core.CompleteFlush, [2]string{"gcc", "calculix"}, false},
		{"single/tage/gcc/noisy-xor", "tage", core.NoisyXOR, [2]string{"gcc", "calculix"}, false},
		{"single/gshare/gcc/noisy-xor", "gshare", core.NoisyXOR, [2]string{"gcc", "calculix"}, false},
		{"single/gshare/gromacs/baseline", "gshare", core.Baseline, [2]string{"gromacs", "GemsFDTD"}, false},
		{"single/gshare/gromacs/complete-flush", "gshare", core.CompleteFlush, [2]string{"gromacs", "GemsFDTD"}, false},
		{"replay/gshare/gromacs/baseline", "gshare", core.Baseline, [2]string{"gromacs", "GemsFDTD"}, true},
	}
	const rounds = 3
	var sum float64
	for _, g := range cells {
		ratios := make([]float64, rounds)
		for r := range ratios {
			fast := timeCell(t, g, (*Core).RunTargetInstructions)
			step := timeCell(t, g, stepTarget)
			ratios[r] = float64(step) / float64(fast)
		}
		sort.Float64s(ratios)
		t.Logf("%-38s stepper/fastRun1 %.2f (rounds %.2f)", g.name, ratios[rounds/2], ratios)
		sum += ratios[rounds/2]
	}
	mean := sum / float64(len(cells))
	t.Logf("mean stepper/fastRun1 ratio %.2f over %d cells", mean, len(cells))
	if mean < 1.0 {
		t.Fatalf("fastRun1 is slower than the stepper: mean ratio %.2f < 1.0", mean)
	}
}
