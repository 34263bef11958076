// Package cpu provides the deterministic, cycle-approximate processor
// model on which every experiment runs. It substitutes for the paper's
// FPGA BOOM prototype and gem5 SMT model (EXPERIMENTS.md, "Model
// substitutions"): all reported numbers in the paper are relative
// overheads driven by branch mispredictions and front-end redirects,
// which this model simulates structurally:
//
//   - a fetch-width-limited front end where taken branches end the fetch
//     group;
//   - a full pipeline-flush penalty on direction/target mispredictions
//     and a short decode-redirect penalty on direct-branch BTB misses
//     (the prototype "simply reverts to fall-through prediction when the
//     target is unavailable" — §6.2.1, the mechanism behind case2's
//     negative overhead);
//   - SMT fetch arbitration: each cycle the next hardware thread in
//     strict round-robin order fetches a full group, and a stalled thread
//     burns its slot rather than donating it;
//   - an OS model: timer interrupts (context switches between software
//     threads sharing a hardware context) and per-benchmark syscalls,
//     both of which execute a synthetic kernel handler at kernel
//     privilege and fire the isolation controller's events.
package cpu

import (
	"xorbp/internal/btb"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/rng"
	"xorbp/internal/snap"
	"xorbp/internal/workload"
)

// Config is the core microarchitecture (Table 2). The JSON tags define
// its canonical wire form (internal/wire): stable snake_case names, one
// per field, no omitted fields.
type Config struct {
	// Name labels the configuration in reports.
	Name string `json:"name"`
	// FetchWidth is the front-end width (instructions per cycle).
	FetchWidth int `json:"fetch_width"`
	// MispredictPenalty is the pipeline-flush cost in cycles (≈ depth).
	MispredictPenalty uint64 `json:"mispredict_penalty"`
	// BTBMissPenalty is the decode-redirect cost for direct taken
	// branches whose target missed in the BTB.
	BTBMissPenalty uint64 `json:"btb_miss_penalty"`
	// BTB is the target buffer geometry.
	BTB btb.Config `json:"btb"`
	// RASDepth is the return address stack depth.
	RASDepth int `json:"ras_depth"`
	// HWThreads is the number of hardware thread contexts (SMT ways).
	HWThreads int `json:"hw_threads"`
}

// FPGAConfig is the paper's FPGA RISC-V BOOM prototype: 4-wide, 10-stage
// (Table 2).
func FPGAConfig() Config {
	return Config{
		Name:              "fpga-boom",
		FetchWidth:        4,
		MispredictPenalty: 12,
		BTBMissPenalty:    3,
		BTB:               btb.FPGAConfig(),
		RASDepth:          16,
		HWThreads:         1,
	}
}

// Gem5Config is the paper's gem5 SMT model after Sunny Cove: 8-wide,
// 19-stage (Table 2).
func Gem5Config(smtThreads int) Config {
	return Config{
		Name:              "gem5-sunnycove",
		FetchWidth:        8,
		MispredictPenalty: 20,
		BTBMissPenalty:    4,
		BTB:               btb.Gem5Config(),
		RASDepth:          32,
		HWThreads:         smtThreads,
	}
}

// SchedulerConfig is the OS model.
type SchedulerConfig struct {
	// TimerPeriod is the cycles between timer interrupts per hardware
	// thread. The paper's 250 Hz Linux at 2 GHz is 8 Mcycles; the
	// experiments sweep 4M/8M/12M (scaled in the harness, see
	// EXPERIMENTS.md).
	TimerPeriod uint64
	// KernelBranches is the mean number of branch events the synthetic
	// kernel handler executes per privilege entry.
	KernelBranches int
	// Seed drives kernel-footprint draws.
	Seed uint64
}

// DefaultScheduler returns the scheduler model used across experiments.
func DefaultScheduler(timerPeriod uint64) SchedulerConfig {
	return SchedulerConfig{TimerPeriod: timerPeriod, KernelBranches: 120, Seed: 0x05}
}

// ThreadStats accumulates per-software-thread measurements.
type ThreadStats struct {
	Instructions uint64 `json:"instructions"` // user instructions retired
	Branches     uint64 `json:"branches"`
	CondBranches uint64 `json:"cond_branches"`
	DirMisp      uint64 `json:"dir_misp"`     // direction-predictor mispredictions
	EffMisp      uint64 `json:"eff_misp"`     // effective (pipeline-flushing) mispredictions
	TargMisp     uint64 `json:"targ_misp"`    // target mispredictions (BTB/RAS)
	DecodeRedir  uint64 `json:"decode_redir"` // cheap decode redirects (direct BTB misses)
	Syscalls     uint64 `json:"syscalls"`
}

// MPKI returns direction mispredictions per kilo-instruction.
func (s ThreadStats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.DirMisp) / float64(s.Instructions) * 1000
}

// eventRingSize is the per-thread event ring capacity. One refill
// amortizes the Program interface dispatch (and, for generators, the
// RNG-driven synthesis machinery) over this many branches.
const eventRingSize = 256

// swThread is one software thread: a program plus its fetch cursor.
// Events are pulled through a fixed ring refilled in bulk via
// workload.BatchProgram, so the steady-state fetch path performs no
// interface calls and no allocations.
type swThread struct {
	prog     workload.Program
	batch    workload.BatchProgram
	ring     []workload.BranchEvent
	ringPos  int
	ringLen  int
	stats    ThreadStats
	ev       workload.BranchEvent
	gapLeft  int
	evLoaded bool
	kernel   bool // kernel handler pseudo-thread
	// activeCycles counts cycles attributed to this thread: on a
	// single-threaded core, every cycle (fetching, stalled, or in a
	// syscall on its behalf) belongs to the scheduled software thread.
	// This is the denoised single-core performance metric: wall time
	// includes the co-scheduled benchmark's slices, whose boundary
	// quantization would otherwise dominate scaled-down runs.
	activeCycles uint64
}

// newSWThread wires a software thread's event ring around its program.
func newSWThread(p workload.Program, kernel bool) *swThread {
	return &swThread{
		prog:   p,
		batch:  workload.Batched(p),
		ring:   make([]workload.BranchEvent, eventRingSize),
		kernel: kernel,
	}
}

// load pulls the thread's next branch event from the ring, refilling in
// bulk when it drains. The ring preserves the per-thread event stream
// exactly: programs are pure sources, so pulling events ahead of the
// cycle they are fetched on cannot change what they contain.
//
//bpvet:hotpath
func (t *swThread) load() {
	if t.ringPos == t.ringLen {
		t.ringLen = t.batch.NextBatch(t.ring)
		t.ringPos = 0
	}
	t.ev = t.ring[t.ringPos]
	t.ringPos++
	t.gapLeft = int(t.ev.Gap)
	t.evLoaded = true
}

// hwContext is one hardware thread (SMT way).
type hwContext struct {
	id         core.HWThread
	sw         []*swThread
	cur        int
	priv       core.Privilege
	stallUntil uint64
	nextTimer  uint64
	kernel     *swThread
	kernelLeft int
	pendingCtx bool // context switch due at kernel exit
}

// active returns the stream the context is fetching from.
//
//bpvet:hotpath
func (hc *hwContext) active() *swThread {
	if hc.kernelLeft > 0 {
		return hc.kernel
	}
	return hc.sw[hc.cur]
}

// Core is the simulated processor.
type Core struct {
	cfg   Config
	sched SchedulerConfig
	ctrl  *core.Controller
	dir   predictor.DirPredictor
	dirPU predictor.PredictUpdater // fused fast path, nil if unsupported
	btb   *btb.BTB
	ras   *btb.RAS

	hw    []*hwContext
	cycle uint64
	rr    int // SMT fetch round-robin pointer
	krng  *rng.Xoshiro256

	// Periodic re-keying (STBPU-style asynchronous key refresh): every
	// rekeyPeriod cycles the controller rotates every key domain. The
	// event is taken at fetch-group entry — the first group whose cycle
	// reaches nextRekey fires it — so fastRun1 and the stepper observe it
	// at the same architectural point (table lookups only happen inside
	// fetch groups). Zero disables.
	rekeyPeriod uint64
	nextRekey   uint64

	// pfWalkCycles is the cost of one Precise Flush: unlike Complete
	// Flush's bulk flash-clear, a precise flush must walk every row
	// comparing stored thread IDs (the "complex hardware implementations"
	// of §4.1 observation 3). Modelled as a predictor-port stall of
	// rows/8 cycles; zero for every other mechanism.
	pfWalkCycles uint64
}

// New builds a core. The predictor must have been constructed against the
// same controller so flush/rotation events reach it.
func New(cfg Config, sched SchedulerConfig, ctrl *core.Controller, dir predictor.DirPredictor) *Core {
	if cfg.HWThreads < 1 || cfg.HWThreads > core.MaxHWThreads {
		panic("cpu: invalid hardware thread count")
	}
	c := &Core{
		cfg:   cfg,
		sched: sched,
		ctrl:  ctrl,
		dir:   dir,
		btb:   btb.New(cfg.BTB, ctrl),
		ras:   btb.NewRAS(cfg.RASDepth, ctrl),
		krng:  rng.NewXoshiro256(rng.Mix64(sched.Seed ^ 0xc0de)),
	}
	c.dirPU, _ = dir.(predictor.PredictUpdater)
	c.rekeyPeriod = ctrl.RekeyEvery()
	c.nextRekey = c.rekeyPeriod
	if ctrl.Options().Mechanism == core.PreciseFlush {
		entries := dir.StorageBits() / 8 // fallback: ~8 bits per entry
		if ec, ok := dir.(interface{ Entries() uint64 }); ok {
			entries = ec.Entries()
		}
		entries += c.btb.Entries()
		// A thread-ID-matching walk at 16 entries per cycle.
		c.pfWalkCycles = entries / 16
	}
	for i := 0; i < cfg.HWThreads; i++ {
		hc := &hwContext{
			id:   core.HWThread(i),
			priv: core.User,
			// Stagger timers so SMT threads do not flush synchronously.
			nextTimer: sched.TimerPeriod + uint64(i)*sched.TimerPeriod/uint64(cfg.HWThreads),
			kernel:    newSWThread(workload.NewGenerator(workload.KernelProfile(), sched.Seed), true),
		}
		c.hw = append(c.hw, hc)
	}
	return c
}

// Assign places programs on hardware contexts: programs[i] goes to
// context i%HWThreads, so a single-threaded core time-shares all of them
// and an SMT core runs one (or more) per way.
func (c *Core) Assign(programs ...workload.Program) {
	for i, p := range programs {
		hc := c.hw[i%c.cfg.HWThreads]
		hc.sw = append(hc.sw, newSWThread(p, false))
	}
	for _, hc := range c.hw {
		if len(hc.sw) == 0 {
			panic("cpu: hardware context without software thread")
		}
	}
}

// BTBUnit exposes the BTB for residency diagnostics.
func (c *Core) BTBUnit() *btb.BTB { return c.btb }

// Controller exposes the isolation controller for event statistics.
func (c *Core) Controller() *core.Controller { return c.ctrl }

// Cycles returns the global cycle counter.
func (c *Core) Cycles() uint64 { return c.cycle }

// ThreadStatsOf returns a copy of the stats of software thread idx on
// hardware context hw.
func (c *Core) ThreadStatsOf(hw, idx int) ThreadStats { return c.hw[hw].sw[idx].stats }

// ThreadCyclesOf returns the cycles attributed to software thread idx on
// hardware context hw (single-core attribution; see swThread).
func (c *Core) ThreadCyclesOf(hw, idx int) uint64 { return c.hw[hw].sw[idx].activeCycles }

// UserInstructions returns the user instructions retired across all
// software threads since the last stats reset — the running total a
// RunTotalInstructions goal is measured against, exposed so a
// cycle-limited run can be resumed toward an absolute goal.
func (c *Core) UserInstructions() uint64 {
	var n uint64
	for _, hc := range c.hw {
		for _, t := range hc.sw {
			n += t.stats.Instructions
		}
	}
	return n
}

// KernelStatsOf returns the kernel pseudo-thread stats of context hw.
func (c *Core) KernelStatsOf(hw int) ThreadStats { return c.hw[hw].kernel.stats }

// ResetStats zeroes all thread statistics and the BTB counters (cycle and
// scheduler state keep running) — call after warmup.
func (c *Core) ResetStats() {
	for _, hc := range c.hw {
		for _, t := range hc.sw {
			t.stats = ThreadStats{}
			t.activeCycles = 0
		}
		hc.kernel.stats = ThreadStats{}
	}
	c.btb.ResetStats()
}

// step advances one cycle: the next hardware context in strict round-
// robin order receives the fetch slot. A context inside its misprediction
// window still consumes its turn — the front end is fetching the wrong
// path on its behalf — so one thread's mispredictions cost the whole SMT
// core bandwidth rather than being silently absorbed by its siblings.
// Returns the number of user instructions retired this cycle.
//
// step is the loop SMT cores run, one call per simulated cycle, and the
// oracle the tests hold fastRun1 against on one-context cores.
//
//bpvet:hotpath
func (c *Core) step() uint64 {
	c.cycle++
	if len(c.hw) == 1 {
		// Single hardware context: the cycle belongs to the scheduled
		// software thread whether it fetches or stalls.
		c.hw[0].sw[c.hw[0].cur].activeCycles++
	}
	hc := c.hw[c.rr]
	c.rr = (c.rr + 1) % len(c.hw)
	if hc.stallUntil > c.cycle {
		return 0 // wrong-path fetch: the slot is burned
	}
	return c.fetchGroup(hc)
}

// fetchGroup fetches up to FetchWidth instructions for hc, stopping at a
// taken branch or a stall. Returns user instructions retired.
//
//bpvet:hotpath
func (c *Core) fetchGroup(hc *hwContext) uint64 {
	// Periodic re-key, taken at any fetch-group entry (kernel or user):
	// the hardware key-refresh timer does not care about privilege.
	// fastRun1 clamps its gap skips to nextRekey so this entry is never
	// jumped over.
	if c.rekeyPeriod != 0 && c.cycle >= c.nextRekey {
		c.nextRekey += c.rekeyPeriod
		c.ctrl.PeriodicRekey()
	}
	// Timer interrupts are taken at user-mode fetch boundaries.
	if hc.kernelLeft == 0 && c.cycle >= hc.nextTimer {
		hc.nextTimer += c.sched.TimerPeriod
		c.enterKernel(hc)
		hc.pendingCtx = len(hc.sw) > 1
		return 0
	}
	var user uint64
	w := c.cfg.FetchWidth
	// The fetching stream cannot change mid-group: every transition that
	// reschedules (kernel entry/exit, syscall) also ends the group, so the
	// active() lookup is hoisted out of the per-instruction loop.
	t := hc.active()
	for w > 0 {
		if !t.evLoaded {
			t.load()
		}
		if t.gapLeft > 0 {
			take := t.gapLeft
			if take > w {
				take = w
			}
			t.gapLeft -= take
			w -= take
			t.stats.Instructions += uint64(take)
			if !t.kernel {
				user += uint64(take)
			}
			continue
		}
		// The branch instruction itself.
		w--
		t.stats.Instructions++
		t.stats.Branches++
		if !t.kernel {
			user++
		}
		redirect, stall := c.resolve(hc, t)
		t.evLoaded = false
		syscall := t.ev.Syscall && !t.kernel
		kernelExit := false
		if t.kernel {
			hc.kernelLeft--
			kernelExit = hc.kernelLeft == 0
		}
		if stall > 0 {
			hc.stallUntil = c.cycle + stall
		}
		if kernelExit {
			c.exitKernel(hc)
		}
		if syscall {
			c.enterKernel(hc)
		}
		// A stall, privilege transition, or taken branch ends the group.
		if stall > 0 || kernelExit || syscall || redirect {
			break
		}
	}
	return user
}

// enterKernel models a privilege switch into the kernel: the isolation
// event fires and the synthetic handler is scheduled.
//
//bpvet:hotpath
func (c *Core) enterKernel(hc *hwContext) {
	hc.priv = core.Kernel
	c.ctrl.PrivilegeChange(hc.id, core.Kernel)
	c.chargeFlushWalk(hc, true)
	// Handler length varies around the configured mean.
	mean := c.sched.KernelBranches
	hc.kernelLeft = mean/2 + c.krng.Intn(mean+1)
	cur := hc.sw[hc.cur]
	if !cur.kernel {
		cur.stats.Syscalls++
	}
}

// exitKernel returns to user mode, firing the privilege event (fresh user
// key under the encoding mechanisms — the §5.5 scenario 5 property), and
// performs any pending context switch.
//
//bpvet:hotpath
func (c *Core) exitKernel(hc *hwContext) {
	if hc.pendingCtx {
		hc.pendingCtx = false
		hc.cur = (hc.cur + 1) % len(hc.sw)
		c.ctrl.ContextSwitch(hc.id)
		c.chargeFlushWalk(hc, false)
	}
	hc.priv = core.User
	c.ctrl.PrivilegeChange(hc.id, core.User)
	c.chargeFlushWalk(hc, true)
}

// chargeFlushWalk stalls the context for the Precise Flush row walk when
// the event actually flushed.
//
//bpvet:hotpath
func (c *Core) chargeFlushWalk(hc *hwContext, privEvent bool) {
	if c.pfWalkCycles == 0 {
		return
	}
	if privEvent && !c.ctrl.Options().FlushOnPrivilege {
		return
	}
	if until := c.cycle + c.pfWalkCycles; until > hc.stallUntil {
		hc.stallUntil = until
	}
}

// resolve predicts and immediately resolves one branch, returning whether
// fetch redirects (taken) and the stall penalty in cycles.
//
//bpvet:hotpath
func (c *Core) resolve(hc *hwContext, t *swThread) (redirect bool, stall uint64) {
	d := core.Domain{Thread: hc.id, Priv: hc.priv}
	ev := &t.ev
	switch ev.Class {
	case predictor.CondDirect:
		var predTaken bool
		if c.dirPU != nil {
			predTaken = c.dirPU.PredictUpdate(d, ev.PC, ev.Taken)
		} else {
			predTaken = c.dir.Predict(d, ev.PC)
			c.dir.Update(d, ev.PC, ev.Taken)
		}
		t.stats.CondBranches++
		if predTaken != ev.Taken {
			t.stats.DirMisp++
		}
		effTaken := predTaken
		var predTarget uint64
		if predTaken {
			tgt, hit := c.btb.Lookup(d, ev.PC)
			if hit {
				predTarget = tgt
			} else {
				// No target available: the front end falls through.
				effTaken = false
			}
		}
		switch {
		case effTaken != ev.Taken:
			t.stats.EffMisp++
			stall = c.cfg.MispredictPenalty
		case effTaken && predTarget != ev.Target&targetMask:
			// False hit produced a garbage target.
			t.stats.TargMisp++
			stall = c.cfg.MispredictPenalty
		}
		if ev.Taken {
			c.btb.Update(d, ev.PC, ev.Target, ev.Class)
			redirect = true
		}

	case predictor.UncondDirect, predictor.Call:
		tgt, hit := c.btb.Lookup(d, ev.PC)
		if !hit || tgt != ev.Target&targetMask {
			// Direct target recomputed at decode: short redirect.
			t.stats.DecodeRedir++
			stall = c.cfg.BTBMissPenalty
		}
		c.btb.Update(d, ev.PC, ev.Target, ev.Class)
		if ev.Class == predictor.Call {
			c.ras.Push(d, ev.PC+4)
		}
		redirect = true

	case predictor.Indirect, predictor.IndirectCall:
		tgt, hit := c.btb.Lookup(d, ev.PC)
		if !hit || tgt != ev.Target&targetMask {
			// Indirect targets resolve at execute: full penalty.
			t.stats.TargMisp++
			t.stats.EffMisp++
			stall = c.cfg.MispredictPenalty
		}
		c.btb.Update(d, ev.PC, ev.Target, ev.Class)
		if ev.Class == predictor.IndirectCall {
			c.ras.Push(d, ev.PC+4)
		}
		redirect = true

	case predictor.Return:
		tgt, ok := c.ras.Pop(d)
		if !ok || tgt != ev.Target {
			t.stats.TargMisp++
			t.stats.EffMisp++
			stall = c.cfg.MispredictPenalty
		}
		redirect = true
	}
	return redirect, stall
}

// targetMask reflects the BTB's partial-target storage (32 bits in both
// configurations).
const targetMask = (1 << 32) - 1

// NoCycleLimit disables the cycle bound of the *Until run variants.
const NoCycleLimit = ^uint64(0)

// RunTargetInstructions runs until software thread 0 on hardware context
// 0 (the "target benchmark") retires n more user instructions, the
// paper's single-threaded measurement. It returns the elapsed cycles.
//
//bpvet:hotpath
func (c *Core) RunTargetInstructions(n uint64) uint64 {
	cyc, _ := c.RunTargetInstructionsUntil(n, NoCycleLimit)
	return cyc
}

// RunTargetInstructionsUntil runs until the target thread retires n more
// user instructions or the global cycle counter reaches cycleLimit,
// whichever comes first. Stopping on the cycle bound is exact and
// resumable: the core holds precisely the state the unlimited run holds
// when its cycle counter passes the same value, so a snapshot taken here
// and restored elsewhere continues the identical trajectory. It returns
// the elapsed cycles and whether the instruction goal was reached.
//
//bpvet:hotpath
func (c *Core) RunTargetInstructionsUntil(n, cycleLimit uint64) (uint64, bool) {
	start := c.cycle
	target := c.hw[0].sw[0]
	goal := target.stats.Instructions + n
	if len(c.hw) == 1 {
		c.fastRun1(true, goal, cycleLimit)
	} else {
		for target.stats.Instructions < goal && c.cycle < cycleLimit {
			c.step()
		}
	}
	return c.cycle - start, target.stats.Instructions >= goal
}

// RunTotalInstructions runs until n more user instructions retire across
// all threads, the paper's SMT measurement ("the execution cycles of the
// next two billion instructions executed by either thread"). It returns
// the elapsed cycles.
//
//bpvet:hotpath
func (c *Core) RunTotalInstructions(n uint64) uint64 {
	cyc, _ := c.RunTotalInstructionsUntil(n, NoCycleLimit)
	return cyc
}

// RunTotalInstructionsUntil is RunTotalInstructions with the same exact,
// resumable cycle bound as RunTargetInstructionsUntil. It returns the
// elapsed cycles and whether the instruction goal was reached.
//
//bpvet:hotpath
func (c *Core) RunTotalInstructionsUntil(n, cycleLimit uint64) (uint64, bool) {
	start := c.cycle
	var done uint64
	if len(c.hw) == 1 {
		done = c.fastRun1(false, n, cycleLimit)
	} else {
		for done < n && c.cycle < cycleLimit {
			done += c.step()
		}
	}
	return c.cycle - start, done >= n
}

// ScheduleRekey sets the cycle at which the next periodic re-key fires.
// Restore overwrites the schedule with the donor core's, which is
// meaningless when the snapshot was taken under a different (or absent)
// re-key period — the fork path calls this after restoring a shared
// prefix to put the member's own schedule in force.
func (c *Core) ScheduleRekey(next uint64) { c.nextRekey = next }

// Snapshottable reports whether every stateful component of the core
// implements the snap seam — in particular, whether the assigned
// programs do. Snapshot panics when this is false.
func (c *Core) Snapshottable() bool {
	if _, ok := c.dir.(snap.Snapshotter); !ok {
		return false
	}
	for _, hc := range c.hw {
		for _, t := range hc.sw {
			if _, ok := t.prog.(snap.Snapshotter); !ok {
				return false
			}
		}
		if _, ok := hc.kernel.prog.(snap.Snapshotter); !ok {
			return false
		}
	}
	return true
}

// Snapshot serializes the complete mutable simulator state: the cycle
// and arbitration counters, the kernel RNG, the controller (keys and
// event counters), the direction predictor, BTB, RAS, and every
// hardware context's scheduling state and software threads (stats,
// event rings, program cursors). Static wiring — configs, table
// geometry, thread assignment — is not serialized; Restore requires a
// core built from the identical spec. Snapshot must only be taken at a
// run boundary (between Run* calls): that is a cycle boundary, where no
// predict-to-update scratch state is live.
func (c *Core) Snapshot(w *snap.Writer) {
	if !c.Snapshottable() {
		panic("cpu: Snapshot on a core with non-snapshottable programs or predictor")
	}
	w.U64(c.cycle)
	w.U32(uint32(c.rr))
	w.U64(c.nextRekey)
	c.krng.Snapshot(w)
	c.ctrl.Snapshot(w)
	c.dir.(snap.Snapshotter).Snapshot(w)
	c.btb.Snapshot(w)
	c.ras.Snapshot(w)
	w.U32(uint32(len(c.hw)))
	for _, hc := range c.hw {
		hc.snapshot(w)
	}
}

// Restore replaces the core's mutable state from a snapshot taken of a
// core built from the same spec. On any mismatch the reader's error is
// set and the core is left partially restored — callers must discard it.
func (c *Core) Restore(r *snap.Reader) {
	c.cycle = r.U64()
	c.rr = int(r.U32())
	c.nextRekey = r.U64()
	c.krng.Restore(r)
	c.ctrl.Restore(r)
	if s, ok := c.dir.(snap.Snapshotter); ok {
		s.Restore(r)
	} else {
		r.Fail("cpu: predictor %s has no snapshot seam", c.dir.Name())
		return
	}
	c.btb.Restore(r)
	c.ras.Restore(r)
	if n := int(r.U32()); n != len(c.hw) {
		r.Fail("cpu: snapshot has %d hardware contexts, core has %d", n, len(c.hw))
		return
	}
	if c.rr < 0 || c.rr >= len(c.hw) {
		r.Fail("cpu: round-robin pointer %d out of range", c.rr)
		return
	}
	for _, hc := range c.hw {
		hc.restore(r)
		if r.Err() != nil {
			return
		}
	}
}

// snapshot writes one hardware context's scheduling state and threads.
func (hc *hwContext) snapshot(w *snap.Writer) {
	w.U8(uint8(hc.priv))
	w.U64(hc.stallUntil)
	w.U64(hc.nextTimer)
	w.I64(int64(hc.kernelLeft))
	w.Bool(hc.pendingCtx)
	w.U32(uint32(hc.cur))
	w.U32(uint32(len(hc.sw)))
	for _, t := range hc.sw {
		t.snapshot(w)
	}
	hc.kernel.snapshot(w)
}

func (hc *hwContext) restore(r *snap.Reader) {
	p := r.U8()
	if p > uint8(core.Kernel) {
		r.Fail("cpu: invalid privilege %d", p)
		return
	}
	hc.priv = core.Privilege(p)
	hc.stallUntil = r.U64()
	hc.nextTimer = r.U64()
	hc.kernelLeft = int(r.I64())
	hc.pendingCtx = r.Bool()
	hc.cur = int(r.U32())
	if n := int(r.U32()); n != len(hc.sw) {
		r.Fail("cpu: snapshot has %d software threads, context has %d", n, len(hc.sw))
		return
	}
	if hc.cur < 0 || hc.cur >= len(hc.sw) {
		r.Fail("cpu: scheduled thread %d out of range", hc.cur)
		return
	}
	for _, t := range hc.sw {
		t.restore(r)
		if r.Err() != nil {
			return
		}
	}
	hc.kernel.restore(r)
}

// snapshot writes one software thread: stats, the pending event and
// fetch cursor, the unconsumed tail of the event ring, and the program's
// own cursor state. Entries before ringPos are stale (never read again),
// so they are omitted — a re-snapshot of a restored thread is
// byte-identical to the original.
func (t *swThread) snapshot(w *snap.Writer) {
	s := &t.stats
	w.U64(s.Instructions)
	w.U64(s.Branches)
	w.U64(s.CondBranches)
	w.U64(s.DirMisp)
	w.U64(s.EffMisp)
	w.U64(s.TargMisp)
	w.U64(s.DecodeRedir)
	w.U64(s.Syscalls)
	t.ev.Snapshot(w)
	w.I64(int64(t.gapLeft))
	w.Bool(t.evLoaded)
	w.U64(t.activeCycles)
	w.U32(uint32(t.ringPos))
	w.U32(uint32(t.ringLen))
	for i := t.ringPos; i < t.ringLen; i++ {
		t.ring[i].Snapshot(w)
	}
	t.prog.(snap.Snapshotter).Snapshot(w)
}

func (t *swThread) restore(r *snap.Reader) {
	s := &t.stats
	s.Instructions = r.U64()
	s.Branches = r.U64()
	s.CondBranches = r.U64()
	s.DirMisp = r.U64()
	s.EffMisp = r.U64()
	s.TargMisp = r.U64()
	s.DecodeRedir = r.U64()
	s.Syscalls = r.U64()
	t.ev.Restore(r)
	t.gapLeft = int(r.I64())
	t.evLoaded = r.Bool()
	t.activeCycles = r.U64()
	pos, n := int(r.U32()), int(r.U32())
	if r.Err() != nil {
		return
	}
	if pos < 0 || n < pos || n > len(t.ring) {
		r.Fail("cpu: ring cursor %d/%d out of range", pos, n)
		return
	}
	t.ringPos, t.ringLen = pos, n
	for i := pos; i < n; i++ {
		t.ring[i].Restore(r)
	}
	if p, ok := t.prog.(snap.Snapshotter); ok {
		p.Restore(r)
	} else {
		r.Fail("cpu: program %s has no snapshot seam", t.prog.Name())
	}
}
