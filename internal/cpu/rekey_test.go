package cpu

import (
	"reflect"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/gshare"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/tage"
	"xorbp/internal/workload"
)

// Periodic re-key and cycle-limit edge cases: the re-key check lives at
// every fetch-group entry in the stepper, so every fastRun1 skip (stall
// burns, whole-gap groups) must clamp to the next re-key cycle, and
// cycle-limited runs must stop exactly on the limit with resumable
// state.

// rekeyScripted builds a core over scripted programs with a periodic
// re-key on top of the mechanism's event-driven rotations.
func rekeyScripted(m core.Mechanism, rekey, timer uint64, progs ...workload.Program) *Core {
	o := core.OptionsFor(m)
	o.RekeyPeriod = rekey
	ctrl := core.NewController(o, 7)
	dir := tage.New(tage.FPGAConfig(), ctrl)
	c := New(FPGAConfig(), DefaultScheduler(timer), ctrl, dir)
	c.Assign(progs...)
	return c
}

// TestPeriodicRekeyEquivalence sweeps re-key periods that land on and
// off fetch-group and gap-skip boundaries (primes, powers of two, a
// period shorter than the stall penalty) and asserts fastRun1 is
// byte-identical to the stepper, including the rotation counters.
func TestPeriodicRekeyEquivalence(t *testing.T) {
	mkProg := func(name string, gap uint16) workload.Program {
		return &scripted{name: name, evs: []workload.BranchEvent{
			{PC: 0x1000, Target: 0x2000, Class: predictor.CondDirect, Taken: true, Gap: gap},
			{PC: 0x1100, Target: 0x1110, Class: predictor.Indirect, Taken: true, Gap: gap / 5},
			{PC: 0x1200, Target: 0x1210, Class: predictor.CondDirect, Taken: false, Gap: 3},
		}}
	}
	for _, rekey := range []uint64{13, 509, 1 << 12, 99_991} {
		build := func() *Core {
			return rekeyScripted(core.NoisyXOR, rekey, 3001, mkProg("gappy", 6000), mkProg("chewy", 40))
		}
		ref := compareLoops(t, build, false, 200_000)
		if rekey < 1000 && ref.Rot == 0 {
			t.Fatalf("rekey=%d: no rotations recorded", rekey)
		}
	}
}

// TestRekeySMTPerSlotLookahead pins an SMT-4 core with heterogeneous
// ways — a persistent staller whose stall windows span timer interrupts,
// two whole-gap ways at different widths, and a dense mixed way — under
// a prime re-key period, so burned slots, long gaps and re-key-carrying
// fetch groups interleave within single round-robin rounds. Asserts that
// no way starves.
func TestRekeySMTPerSlotLookahead(t *testing.T) {
	stally := &scripted{name: "stall-way", evs: []workload.BranchEvent{
		{PC: 0x6000, Target: 0x6800, Class: predictor.Indirect, Taken: true, Gap: 2},
		{PC: 0x6010, Target: 0x6900, Class: predictor.Indirect, Taken: true, Gap: 3},
	}}
	wide := &scripted{name: "wide-way", evs: []workload.BranchEvent{
		{PC: 0x7000, Target: 0x7100, Class: predictor.CondDirect, Taken: false, Gap: 9000},
	}}
	narrow := &scripted{name: "narrow-way", evs: []workload.BranchEvent{
		{PC: 0x7200, Target: 0x7300, Class: predictor.CondDirect, Taken: false, Gap: 48},
	}}
	dense := &scripted{name: "dense-way", evs: []workload.BranchEvent{
		{PC: 0x7400, Target: 0x7500, Class: predictor.CondDirect, Taken: true, Gap: 2},
		{PC: 0x7410, Target: 0x7510, Class: predictor.CondDirect, Taken: false, Gap: 5},
	}}
	o := core.OptionsFor(core.NoisyXOR)
	o.RekeyPeriod = 2503
	ctrl := core.NewController(o, 9)
	dir := gshare.New(gshare.Gem5Config(), ctrl)
	c := New(Gem5Config(4), DefaultScheduler(10_007), ctrl, dir)
	c.Assign(stally, wide, narrow, dense)
	got := capture(c, c.RunTotalInstructions(400_000))
	for hw := range got.Threads {
		if got.Threads[hw][0].Instructions == 0 {
			t.Fatalf("SMT way %d starved: %+v", hw, got.Threads)
		}
	}
}

// TestNonEncodingRekeyInert: flush mechanisms have no keys, so a
// RekeyPeriod on them normalizes away and the trajectory must be
// byte-identical to the same run without one.
func TestNonEncodingRekeyInert(t *testing.T) {
	mk := func(rekey uint64) snapshot {
		evs := []workload.BranchEvent{
			{PC: 0x4000, Target: 0x4800, Class: predictor.CondDirect, Taken: true, Gap: 24},
			{PC: 0x4100, Target: 0x4900, Class: predictor.Indirect, Taken: true, Gap: 7},
		}
		c := rekeyScripted(core.CompleteFlush, rekey, 5000, &scripted{name: "w", evs: evs})
		return capture(c, c.RunTargetInstructions(150_000))
	}
	with, without := mk(777), mk(0)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("RekeyPeriod on a flush mechanism changed the trajectory:\nwith:    %+v\nwithout: %+v", with, without)
	}
}

// TestCycleLimitedRunResumes: a run segmented across arbitrary cycle
// limits — including limits landing inside stall windows and gap skips
// — must finish in exactly the state of the straight run.
func TestCycleLimitedRunResumes(t *testing.T) {
	build := func() *Core {
		evs := []workload.BranchEvent{
			{PC: 0x1000, Target: 0x2000, Class: predictor.CondDirect, Taken: true, Gap: 900},
			{PC: 0x1100, Target: 0x1110, Class: predictor.Indirect, Taken: true, Gap: 12},
		}
		return rekeyScripted(core.NoisyXOR, 997, 3001,
			&scripted{name: "a", evs: evs}, &scripted{name: "b", evs: evs})
	}
	const goal = 120_000
	straight := build()
	want := capture(straight, straight.RunTargetInstructions(goal))

	seg := build()
	start := seg.Cycles()
	for _, step := range []uint64{1, 2, 3, 499, 997, 1000, 4096, 10_000} {
		if _, done := seg.RunTargetInstructionsUntil(
			goal-seg.ThreadStatsOf(0, 0).Instructions, seg.Cycles()+step); done {
			break
		}
		if seg.Cycles() > start+step {
			// The limit must be landed on exactly (resumability), never
			// overshot.
			t.Fatalf("segment overshot its cycle limit: at %d, limit %d", seg.Cycles(), start+step)
		}
		start = seg.Cycles()
	}
	for {
		remaining := goal - seg.ThreadStatsOf(0, 0).Instructions
		if _, done := seg.RunTargetInstructionsUntil(remaining, seg.Cycles()+50_000); done {
			break
		}
	}
	got := capture(seg, seg.Cycles())
	want.Elapsed, got.Elapsed = 0, 0 // per-segment elapsed differs by construction
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("segmented run diverged from straight run:\nstraight:  %+v\nsegmented: %+v", want, got)
	}
	if straight.Cycles() != seg.Cycles() {
		t.Fatalf("segmented run ended on cycle %d, straight on %d", seg.Cycles(), straight.Cycles())
	}
}

// Snapshot/Restore for the scripted test program, so core-level snapshot
// tests can use the same event streams as the fast-forward edge cases.
func (s *scripted) Snapshot(w *snap.Writer) { w.U64(uint64(s.pos)) }
func (s *scripted) Restore(r *snap.Reader)  { s.pos = int(r.U64()) }

// TestCoreSnapshotRoundTrip stops a run mid-flight, snapshots, restores
// into a freshly built core, and requires (a) the restored core to
// re-snapshot byte-identically and (b) both cores to finish the
// remainder of the run in byte-identical state — on fastRun1 and across
// a swap to and from the stepper (snapshot on one loop, resume on the
// other), which is what ties the snapshot seam to the oracle.
func TestCoreSnapshotRoundTrip(t *testing.T) {
	evs := []workload.BranchEvent{
		{PC: 0x1000, Target: 0x2000, Class: predictor.CondDirect, Taken: true, Gap: 300},
		{PC: 0x1100, Target: 0x1110, Class: predictor.Indirect, Taken: true, Gap: 9},
		{PC: 0x1200, Target: 0x1210, Class: predictor.CondDirect, Taken: false, Gap: 2},
	}
	build := func() *Core {
		return rekeyScripted(core.NoisyXOR, 1511, 2003,
			&scripted{name: "a", evs: evs}, &scripted{name: "b", evs: evs})
	}
	fast := func(c *Core, n, cycLimit uint64) uint64 {
		cyc, _ := c.RunTargetInstructionsUntil(n, cycLimit)
		return cyc
	}
	step := func(c *Core, n, cycLimit uint64) uint64 { return stepUntil(c, true, n, cycLimit) }
	for _, loops := range []struct {
		name         string
		donor, clone func(c *Core, n, cycLimit uint64) uint64
	}{
		{"fast/fast", fast, fast},
		{"fast/stepper", fast, step},
		{"stepper/fast", step, fast},
	} {
		donor := build()
		if !donor.Snapshottable() {
			t.Fatal("scripted core not snapshottable")
		}
		const goal, stopAt = 90_000, 20_000
		loops.donor(donor, goal, stopAt)
		w := &snap.Writer{}
		donor.Snapshot(w)
		data := w.Bytes()

		clone := build()
		r := snap.NewReader(data)
		clone.Restore(r)
		if err := r.Err(); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("restore left %d trailing bytes", r.Remaining())
		}
		w2 := &snap.Writer{}
		clone.Snapshot(w2)
		if string(w2.Bytes()) != string(data) {
			t.Fatalf("%s: restored core re-snapshots differently", loops.name)
		}

		dn := loops.donor(donor, goal-donor.ThreadStatsOf(0, 0).Instructions, NoCycleLimit)
		cn := loops.clone(clone, goal-clone.ThreadStatsOf(0, 0).Instructions, NoCycleLimit)
		ds, cs := capture(donor, dn), capture(clone, cn)
		if !reflect.DeepEqual(ds, cs) {
			t.Fatalf("%s: restored core diverged:\ndonor: %+v\nclone: %+v", loops.name, ds, cs)
		}
	}
}

// TestSnapshotRejectsMismatchedShape: restoring into a core with a
// different hardware-context count must fail via the reader error, not
// corrupt state silently or panic.
func TestSnapshotRejectsMismatchedShape(t *testing.T) {
	evs := []workload.BranchEvent{
		{PC: 0x1000, Target: 0x2000, Class: predictor.CondDirect, Taken: true, Gap: 10},
	}
	mk := func(threads int) *Core {
		o := core.OptionsFor(core.NoisyXOR)
		ctrl := core.NewController(o, 3)
		dir := gshare.New(gshare.Gem5Config(), ctrl)
		c := New(Gem5Config(threads), DefaultScheduler(5000), ctrl, dir)
		var progs []workload.Program
		for i := 0; i < threads; i++ {
			progs = append(progs, &scripted{name: "w", evs: evs})
		}
		c.Assign(progs...)
		return c
	}
	donor := mk(2)
	donor.RunTotalInstructions(10_000)
	w := &snap.Writer{}
	donor.Snapshot(w)

	clone := mk(4)
	r := snap.NewReader(w.Bytes())
	clone.Restore(r)
	if r.Err() == nil {
		t.Fatal("restore into a different core shape succeeded")
	}
}
