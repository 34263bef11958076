package experiment

// Cross-cell prefix sharing. A re-key period sweep simulates the same
// workload under options that are identical except for RekeyPeriod — and
// a periodic re-key is provably inert before its first firing, so every
// member of such a family traces the identical trajectory up to its
// divergence cycle. Instead of re-simulating that shared prefix once per
// cell, the executor chains the family: the shortest-period member runs
// first and hands on a snapshot of the complete simulator state at the
// last cycle before its first re-key; each later member restores the
// snapshot handed to it, simulates only its own tail, and hands on its
// own divergence snapshot in turn.
//
// Correctness rests on two facts, both enforced by tests:
//
//   - The cpu snapshot seam is byte-exact: a restored core continues the
//     identical trajectory (cycle counts, stats, controller counters) as
//     the donor — verified on both cpu loops, including a snapshot taken
//     on one and resumed on the other (cpu.TestCoreSnapshotRoundTrip).
//   - A member whose re-key period is P runs cycles 1..P-1 identically
//     to a re-key-free core: the re-key check at each fetch-group entry
//     compares c.cycle >= P and cannot fire before cycle P. The straight
//     run fires the first re-key inside the fetch group at cycle P, so
//     the divergence snapshot is taken at the cycle-(P-1) boundary and
//     the tail resumes with the rekey scheduled for cycle P.
//
// A chain keeps only its latest snapshot, and only while the chain runs.
// Members ascend by period, so the latest snapshot is the longest prefix
// any later member can use; across chains and processes the run cache
// already holds every finished cell, so a rerun replays results instead
// of restoring prefixes.

import (
	"fmt"
	"sort"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/snap"
	"xorbp/internal/workload"
)

// sim lifecycle phases. A snapshot taken mid-warmup or mid-measurement
// resumes in the same phase; simDone states are never snapshotted (the
// result is already final).
const (
	simWarmup uint8 = iota
	simMeasure
	simDone
)

// sim is one performance run's lifecycle — construct, warm up, reset
// stats, measure, assemble the result — restructured from the straight-
// line run() into a resumable state machine so it can be stopped at an
// arbitrary cycle, snapshotted, and continued with a byte-identical
// outcome.
type sim struct {
	s    runSpec
	smt  bool
	ctrl *core.Controller
	c    *cpu.Core

	phase uint8
	// ctx0/priv0/measStart anchor the measurement window: controller
	// counters and the cycle at the stats reset.
	ctx0      uint64
	priv0     uint64
	measStart uint64
}

// newSim constructs the simulator for a performance spec, exactly as
// run() does.
func newSim(s runSpec) *sim {
	ctrl := core.NewController(s.opts, s.scale.Seed)
	dir := NewDirPredictor(s.predName, ctrl)
	c := cpu.New(s.cfg, cpu.DefaultScheduler(s.timer), ctrl, dir)
	var progs []workload.Program
	for i, n := range s.names {
		progs = append(progs, workload.NewGenerator(workload.MustByName(n), s.scale.Seed*1000+uint64(i)))
	}
	c.Assign(progs...)
	return &sim{s: s, smt: s.cfg.HWThreads > 1, ctrl: ctrl, c: c}
}

func (m *sim) warmupGoal() uint64 {
	if m.smt {
		return m.s.scale.SMTWarmupInstr
	}
	return m.s.scale.WarmupInstr
}

func (m *sim) measureGoal() uint64 {
	if m.smt {
		return m.s.scale.SMTMeasureInstr
	}
	return m.s.scale.MeasureInstr
}

// instr returns the current phase's progress toward its goal: retired
// target-thread instructions (single-core) or user instructions across
// all threads (SMT), both counted since the phase's stats reset.
func (m *sim) instr() uint64 {
	if m.smt {
		return m.c.UserInstructions()
	}
	return m.c.ThreadStatsOf(0, 0).Instructions
}

// runUntil advances toward the current phase goal, stopping exactly at
// cycLimit; reports whether the goal was reached.
func (m *sim) runUntil(remaining, cycLimit uint64) bool {
	if m.smt {
		_, ok := m.c.RunTotalInstructionsUntil(remaining, cycLimit)
		return ok
	}
	_, ok := m.c.RunTargetInstructionsUntil(remaining, cycLimit)
	return ok
}

// advance drives the lifecycle forward until the run is complete or the
// global cycle counter reaches cycLimit, whichever comes first; it
// reports whether the run completed. Phase transitions (the stats reset
// between warmup and measurement) happen at the exact instruction
// boundaries the straight run() uses, so a segmented run — any sequence
// of advance calls with increasing limits — is trajectory-identical to
// one advance(cpu.NoCycleLimit).
func (m *sim) advance(cycLimit uint64) bool {
	if m.phase == simWarmup {
		if cur := m.instr(); cur < m.warmupGoal() {
			if !m.runUntil(m.warmupGoal()-cur, cycLimit) {
				return false
			}
		}
		m.c.ResetStats()
		m.ctx0, m.priv0, _, _ = m.ctrl.Stats()
		m.measStart = m.c.Cycles()
		m.phase = simMeasure
	}
	if m.phase == simMeasure {
		if cur := m.instr(); cur < m.measureGoal() {
			if !m.runUntil(m.measureGoal()-cur, cycLimit) {
				return false
			}
		}
		m.phase = simDone
	}
	return true
}

// result assembles the RunResult for a completed lifecycle, identically
// to the straight run().
func (m *sim) result() RunResult {
	if m.phase != simDone {
		panic("experiment: sim.result before the lifecycle completed")
	}
	ctx1, priv1, _, _ := m.ctrl.Stats()
	var cycles uint64
	if m.smt {
		cycles = m.c.Cycles() - m.measStart
	} else {
		// Single core: measure cycles attributed to the target thread
		// (scheduler-slice quantization would dominate wall time at
		// simulation scale — see swThread.activeCycles).
		cycles = m.c.ThreadCyclesOf(0, 0)
	}
	res := RunResult{
		Cycles:       cycles,
		Target:       m.c.ThreadStatsOf(0, 0),
		PrivSwitches: priv1 - m.priv0,
		CtxSwitches:  ctx1 - m.ctx0,
		BTBHitRate:   m.c.BTBUnit().HitRate(),
	}
	if m.smt {
		for hw := 1; hw < m.s.cfg.HWThreads; hw++ {
			res.Others = append(res.Others, m.c.ThreadStatsOf(hw, 0))
		}
	} else {
		for i := 1; i < len(m.s.names); i++ {
			res.Others = append(res.Others, m.c.ThreadStatsOf(0, i))
		}
	}
	return res
}

// snapshot serializes the lifecycle state (phase and measurement-window
// anchors) followed by the complete core state, reusing buf's storage.
func (m *sim) snapshot(buf []byte) []byte {
	w := snap.NewWriter(buf)
	w.U8(m.phase)
	w.U64(m.ctx0)
	w.U64(m.priv0)
	w.U64(m.measStart)
	m.c.Snapshot(w)
	return w.Bytes()
}

// restore replaces the lifecycle and core state from a snapshot taken of
// a sim built from the same prefix spec. On error the sim is partially
// restored and poisoned: the caller must discard it and build a fresh
// one.
func (m *sim) restore(data []byte) error {
	r := snap.NewReader(data)
	phase := r.U8()
	if phase > simMeasure {
		r.Fail("experiment: snapshot phase %d not resumable", phase)
	}
	m.ctx0 = r.U64()
	m.priv0 = r.U64()
	m.measStart = r.U64()
	m.c.Restore(r)
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("experiment: %d trailing bytes in snapshot", n)
	}
	m.phase = phase
	return nil
}

// forkable reports whether a spec can join a divergence family: a
// performance run whose normalized options carry a periodic re-key. All
// other option fields are live from cycle zero, so the re-key period is
// the only parameter that is provably inert before a known cycle.
func forkable(s runSpec) bool {
	return s.kind == "" && s.opts.Normalized().RekeyPeriod > 0
}

// rekeyOf returns a spec's normalized re-key period — the divergence
// cycle of its first re-key.
func rekeyOf(s runSpec) uint64 { return s.opts.Normalized().RekeyPeriod }

// prefixSpec strips the one diverging parameter, naming the shared
// prefix every family member traces before its own divergence cycle.
func prefixSpec(s runSpec) runSpec {
	s.opts.RekeyPeriod = 0
	return s
}

// forkFamilies partitions spec indices into fork chains — groups whose
// specs are identical up to the re-key period, ordered by ascending
// period so each member extends the previous member's prefix — and
// singles that cannot fork. Chains appear in first-appearance order and
// ties break on index, so the partition is deterministic.
func forkFamilies(specs []runSpec) (chains [][]int, singles []int) {
	slot := make(map[runKey]int)
	for i, s := range specs {
		if !forkable(s) {
			singles = append(singles, i)
			continue
		}
		pk := specKey(prefixSpec(s))
		j, ok := slot[pk]
		if !ok {
			j = len(chains)
			slot[pk] = j
			chains = append(chains, nil)
		}
		chains[j] = append(chains[j], i)
	}
	for _, ch := range chains {
		sort.Slice(ch, func(a, b int) bool {
			pa, pb := rekeyOf(specs[ch[a]]), rekeyOf(specs[ch[b]])
			if pa != pb {
				return pa < pb
			}
			return ch[a] < ch[b]
		})
	}
	return chains, singles
}

// runForked executes one family member, continuing from prev — the
// divergence snapshot handed on by the chain's previous member, or nil
// for the first — and returns its result with the snapshot to hand on.
// Chains ascend by period, so prev predates the member's own divergence
// cycle. If the lifecycle completes before that cycle the re-key never
// fires, the result is final, and prev is handed on unchanged (every
// later member, with a longer period, completes before its own
// divergence too); otherwise the member snapshots its own divergence
// point into prev's storage before finishing its tail, so the caller
// keeps only the returned snapshot. A snapshot that fails to restore
// falls back to a cold run, which gives the same result.
//
// The result is byte-identical to run(s): restoration is exact, the
// prefix cycles never observe a re-key in either path, and the tail
// resumes with the first re-key scheduled at the same cycle the straight
// run fires it.
func runForked(s runSpec, prev []byte) (RunResult, []byte) {
	p := rekeyOf(s)
	m := newSim(s)
	if prev != nil {
		if m.restore(prev) != nil {
			m = newSim(s) // the failed restore poisoned it
		} else {
			// The snapshot predates the prefix's first re-key; put this
			// member's own schedule in force over the donor's.
			m.c.ScheduleRekey(p)
		}
	}
	if m.advance(p - 1) {
		// Completed before the divergence cycle: the re-key never fires,
		// the result is final, and there is no longer prefix to hand on.
		return m.result(), prev
	}
	next := m.snapshot(prev) // the reader copied out of prev, so it is dead
	m.advance(cpu.NoCycleLimit)
	return m.result(), next
}
