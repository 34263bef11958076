package cpu

// This file is the one-context loop behind RunTargetInstructions /
// RunTotalInstructions on a core with a single hardware context (the
// FPGA shape of Figures 1 and 7-9). SMT cores run the stepper (step, in
// cpu.go), one call per simulated cycle: measured against it, skipping
// whole round-robin rounds did not pay for itself (EXPERIMENTS.md, "Why
// SMT has no fast-forward loop").
//
// The stepper burns a function call on every stall cycle and every
// whole-gap fetch group. fastRun1 produces the same architecture-visible
// trajectory while advancing time arithmetically through the windows
// where nothing can happen:
//
//   - Stall windows (misprediction penalties, Precise-Flush walks): no
//     fetch occurs until stallUntil, so the cycle counter jumps there
//     directly.
//   - Whole-gap fetch groups: while a branch event's instruction gap
//     spans the full fetch width, each cycle retires FetchWidth gap
//     instructions and touches no predictor, scheduler or RNG state, so
//     the whole run of groups collapses into arithmetic.
//
// Every skip is clamped so scheduling semantics are unchanged:
//
//   - to the next timer interrupt (checked at every user-mode fetch-group
//     boundary by the stepper),
//   - to the next periodic re-key (checked at every fetch-group entry by
//     the stepper),
//   - to the caller's cycle limit (the snapshot/fork stop point), landing
//     exactly on the requested cycle,
//   - to the instruction goal, stopping short of the crossing group so
//     the loop terminates on exactly the stepper's cycle.
//
// The equivalence tests (equiv_test.go, fastforward_test.go,
// rekey_test.go) hold fastRun1 byte-identical to the stepper — cycle
// counts, ThreadStats and controller statistics — across every
// mechanism and predictor.

// fastRun1 is the devirtualized single-hardware-context loop: no
// round-robin arbitration (the modulo and the per-cycle context lookup
// of step() disappear), stall windows and whole-gap groups fast-forward
// arithmetically, and the remaining "interesting" cycles run one
// stepper-identical fetch group each.
//
// targetOnly selects the termination rule: true stops when hardware
// context 0's software thread 0 has retired `limit` total instructions
// (RunTargetInstructions); false stops when `limit` user instructions
// have retired across all threads since the call (RunTotalInstructions).
// cycLimit additionally stops the run when the global cycle counter
// reaches it (NoCycleLimit disables); every fast-forward is clamped to
// land exactly on it. Returns the user instructions retired since the
// call.
//
//bpvet:hotpath
func (c *Core) fastRun1(targetOnly bool, limit, cycLimit uint64) uint64 {
	hc := c.hw[0]
	fw := uint64(c.cfg.FetchWidth)
	target := hc.sw[0]
	var done uint64
	for {
		if targetOnly {
			if target.stats.Instructions >= limit {
				return done
			}
		} else if done >= limit {
			return done
		}
		if c.cycle >= cycLimit {
			return done
		}

		// Stall fast-forward: the stepper burns one step per stalled
		// cycle with no state change beyond the cycle counter and the
		// scheduled thread's attribution; jump to the cycle fetch
		// resumes on. Timer interrupts and re-keys cannot fire mid-stall
		// (they are taken at fetch-group boundaries only), so only the
		// cycle limit clamps the jump.
		if s := hc.stallUntil; s > c.cycle+1 {
			burn := s - c.cycle - 1
			if lim := cycLimit - c.cycle; burn > lim {
				burn = lim
			}
			c.cycle += burn
			hc.sw[hc.cur].activeCycles += burn
			continue
		}

		// Gap fast-forward: while the pending event's gap covers the full
		// fetch width, each cycle is a whole-gap group — FetchWidth
		// instructions retire and nothing else happens. Clamped to the
		// timer (due interrupts preempt the group in user mode), to the
		// next re-key (each skipped cycle is a fetch-group entry in the
		// stepper, where the re-key check lives), to the cycle limit, and
		// to the instruction goal (the crossing group must execute
		// normally so the run ends on the stepper's cycle).
		if hc.kernelLeft > 0 || c.cycle+1 < hc.nextTimer {
			t := hc.active()
			if !t.evLoaded {
				t.load()
			}
			if uint64(t.gapLeft) >= fw {
				groups := uint64(t.gapLeft) / fw
				if hc.kernelLeft == 0 {
					if lim := hc.nextTimer - c.cycle - 1; groups > lim {
						groups = lim
					}
				}
				if c.rekeyPeriod != 0 {
					if c.nextRekey <= c.cycle+1 {
						groups = 0
					} else if lim := c.nextRekey - c.cycle - 1; groups > lim {
						groups = lim
					}
				}
				if lim := cycLimit - c.cycle; groups > lim {
					groups = lim
				}
				if targetOnly {
					if t == target {
						if maxG := (limit - target.stats.Instructions - 1) / fw; groups > maxG {
							groups = maxG
						}
					}
				} else if !t.kernel {
					if maxG := (limit - done - 1) / fw; groups > maxG {
						groups = maxG
					}
				}
				if groups > 0 {
					inst := groups * fw
					c.cycle += groups
					hc.sw[hc.cur].activeCycles += groups
					t.gapLeft -= int(inst)
					t.stats.Instructions += inst
					if !t.kernel {
						done += inst
					}
					continue
				}
			}
		}

		// One step, inlined for the single context.
		c.cycle++
		hc.sw[hc.cur].activeCycles++
		if hc.stallUntil > c.cycle {
			continue
		}
		done += c.fetchGroup(hc)
	}
}
