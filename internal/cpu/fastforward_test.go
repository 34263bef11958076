package cpu

import (
	"reflect"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/gshare"
	"xorbp/internal/predictor"
	"xorbp/internal/tage"
	"xorbp/internal/workload"
)

// Targeted fast-forward edge cases: scripted event streams place timer
// interrupts, stall expiries and goal crossings exactly on the
// boundaries fastRun1's skip arithmetic clamps to, and each case asserts
// fastRun1 lands on the stepper's cycle.

// scripted is a minimal looping Program. It deliberately does NOT
// implement workload.BatchProgram, so these tests also exercise the
// Batched single-Next adapter path of the event ring.
type scripted struct {
	name string
	evs  []workload.BranchEvent
	pos  int
}

func (s *scripted) Name() string { return s.name }

func (s *scripted) Next(ev *workload.BranchEvent) {
	*ev = s.evs[s.pos%len(s.evs)]
	s.pos++
}

// buildScripted wires a single-context FPGA core around fresh copies of
// the scripted programs.
func buildScripted(m core.Mechanism, timer uint64, progs ...workload.Program) *Core {
	ctrl := core.NewController(core.OptionsFor(m), 7)
	dir := tage.New(tage.FPGAConfig(), ctrl)
	c := New(FPGAConfig(), DefaultScheduler(timer), ctrl, dir)
	c.Assign(progs...)
	return c
}

// compareLoops runs the same scenario on fastRun1, through the exported
// run methods, and on the stepper, and asserts identical snapshots.
// build must construct a fresh, identical one-context core per call;
// total selects RunTotalInstructions over RunTargetInstructions.
func compareLoops(t *testing.T, build func() *Core, total bool, n uint64) snapshot {
	t.Helper()
	fast, step := build(), build()
	if len(fast.hw) != 1 {
		t.Fatal("compareLoops needs a one-context core: SMT cores run the stepper in production")
	}
	var ef, es uint64
	if total {
		ef, es = fast.RunTotalInstructions(n), stepTotal(step, n)
	} else {
		ef, es = fast.RunTargetInstructions(n), stepTarget(step, n)
	}
	sf, ss := capture(fast, ef), capture(step, es)
	if !reflect.DeepEqual(ss, sf) {
		t.Fatalf("fastRun1 diverged from the stepper:\nstepper: %+v\nfast:    %+v", ss, sf)
	}
	return ss
}

// TestTimerLandsMidGap forces timer interrupts to land inside long
// instruction gaps: a 3001-cycle timer against events whose gaps span
// thousands of fetch groups means nearly every interrupt preempts a gap
// mid-flight, and the partially-consumed gap must resume afterwards.
func TestTimerLandsMidGap(t *testing.T) {
	mkProg := func(name string, gap uint16) workload.Program {
		return &scripted{name: name, evs: []workload.BranchEvent{
			{PC: 0x1000, Target: 0x2000, Class: predictor.CondDirect, Taken: true, Gap: gap},
			{PC: 0x1100, Target: 0x1100 + 16, Class: predictor.CondDirect, Taken: false, Gap: gap / 3},
		}}
	}
	build := func() *Core {
		return buildScripted(core.NoisyXOR, 3001, mkProg("gappy", 60000), mkProg("gappy2", 17))
	}
	compareLoops(t, build, false, 400_000)
}

// TestStallExpiryOnSkippedToCycle drives a mispredict-heavy stream so
// stall windows are constant, with gaps sized so that gap skips land the
// cycle counter exactly on stall expiries and group boundaries.
func TestStallExpiryOnSkippedToCycle(t *testing.T) {
	// Alternating outcomes at one PC defeat the predictor persistently;
	// Gap values 4 and 8 are exact multiples of the FPGA fetch width, so
	// whole-gap skips end exactly where the branch group begins.
	evs := []workload.BranchEvent{
		{PC: 0x4000, Target: 0x4800, Class: predictor.CondDirect, Taken: true, Gap: 4},
		{PC: 0x4000, Target: 0x4800, Class: predictor.CondDirect, Taken: false, Gap: 8},
		{PC: 0x4100, Target: 0x4900, Class: predictor.Indirect, Taken: true, Gap: 12},
	}
	build := func() *Core {
		return buildScripted(core.CompleteFlush, 5000,
			&scripted{name: "stally", evs: evs},
			&scripted{name: "stally2", evs: evs})
	}
	compareLoops(t, build, false, 300_000)
}

// TestSMTRoundRobinFairnessOneWayStalled pins an SMT-2 core with one
// way in near-permanent stall (every branch mispredicts) against a way
// running pure whole-gap traffic: the stalled way's slots are burned,
// not donated, and both ways must make progress.
func TestSMTRoundRobinFairnessOneWayStalled(t *testing.T) {
	stally := func(name string) workload.Program {
		return &scripted{name: name, evs: []workload.BranchEvent{
			{PC: 0x6000, Target: 0x6800, Class: predictor.Indirect, Taken: true, Gap: 2},
			{PC: 0x6010, Target: 0x6900, Class: predictor.Indirect, Taken: true, Gap: 3},
		}}
	}
	gappy := func(name string) workload.Program {
		return &scripted{name: name, evs: []workload.BranchEvent{
			{PC: 0x7000, Target: 0x7100, Class: predictor.CondDirect, Taken: false, Gap: 4000},
		}}
	}
	ctrl := core.NewController(core.OptionsFor(core.Baseline), 9)
	dir := gshare.New(gshare.Gem5Config(), ctrl)
	c := New(Gem5Config(2), DefaultScheduler(20_000), ctrl, dir)
	c.Assign(stally("stall-way"), gappy("gap-way"))
	c.RunTotalInstructions(500_000)
	if c.ThreadStatsOf(0, 0).Instructions == 0 || c.ThreadStatsOf(1, 0).Instructions == 0 {
		t.Fatalf("an SMT way starved: %+v / %+v", c.ThreadStatsOf(0, 0), c.ThreadStatsOf(1, 0))
	}
}

// TestRunTotalTerminationExactlyAtGoal asserts the run stops on the
// slot that crosses the goal: the overshoot is bounded by one fetch
// group, and fastRun1's cycle count matches the stepper's even when the
// goal lands mid-gap-skip.
func TestRunTotalTerminationExactlyAtGoal(t *testing.T) {
	// Goals chosen to land inside whole-gap skips (gap 64 = 16 FPGA
	// fetch groups) and off any group multiple.
	for _, goal := range []uint64{1, 7, 63, 64, 65, 100_003} {
		mk := func() *Core {
			return buildScripted(core.Baseline, 50_000,
				&scripted{name: "wide", evs: []workload.BranchEvent{
					{PC: 0x9000, Target: 0x9100, Class: predictor.CondDirect, Taken: false, Gap: 64},
				}})
		}
		ref := compareLoops(t, mk, true, goal)
		var user uint64
		for hw := range ref.Threads {
			for _, st := range ref.Threads[hw] {
				user += st.Instructions
			}
		}
		if user < goal {
			t.Fatalf("goal %d: only %d user instructions retired", goal, user)
		}
		if over := user - goal; over >= uint64(FPGAConfig().FetchWidth) {
			t.Fatalf("goal %d: overshoot %d >= one fetch group", goal, over)
		}
	}
}

// TestRunZeroInstructions: a zero-instruction run must not advance time
// on either loop.
func TestRunZeroInstructions(t *testing.T) {
	build := func() *Core {
		return buildScripted(core.Baseline, 10_000,
			&scripted{name: "idle", evs: []workload.BranchEvent{
				{PC: 0xa000, Target: 0xa100, Class: predictor.CondDirect, Taken: false, Gap: 5},
			}})
	}
	ref := compareLoops(t, build, true, 0)
	if ref.Elapsed != 0 {
		t.Fatalf("zero-goal run advanced %d cycles", ref.Elapsed)
	}
}
