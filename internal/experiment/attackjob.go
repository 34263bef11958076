package experiment

import (
	"fmt"

	"xorbp/internal/attack"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/wire"
)

// AttackJob describes one attack cell as an engine job: a registered
// PoC against a mechanism configuration, on one core arrangement, with
// the security grid's two extra knobs (direction predictor, re-key
// period). Jobs resolve through the same Executor path as performance
// runs — memo cache, persistent store, worker pool, pull fleets and
// shard assignments all apply.
type AttackJob struct {
	// Attack is the registered attack name (attack.ByName).
	Attack string
	// Opts is the mechanism configuration under attack.
	Opts core.Options
	// Scenario is the core arrangement.
	Scenario attack.Scenario
	// Pred names the direction predictor under attack; "" selects the
	// PoC's default bimodal table.
	Pred string
	// RekeyPeriod is the isolation timer period in scheduling events
	// (0 = the paper's event-driven design). See attack.Env.
	RekeyPeriod uint64
	// Trials and Attempts size the measurement (attack.Request).
	Trials   int
	Attempts int
	// Seed diversifies the measurement deterministically.
	Seed uint64
}

// JobFor converts a logical attack request into its engine-job form.
func JobFor(r attack.Request) AttackJob {
	return AttackJob{
		Attack:   r.Attack,
		Opts:     r.Opts,
		Scenario: r.Scenario,
		Trials:   r.Trials,
		Attempts: r.Attempts,
		Seed:     r.Seed,
	}
}

// attackRunSpec builds the internal spec for a job.
func attackRunSpec(j AttackJob) runSpec {
	return runSpec{
		kind:     wire.KindAttack,
		opts:     j.Opts,
		predName: j.Pred,
		atk: attackCell{
			name:     j.Attack,
			scenario: j.Scenario,
			rekey:    j.RekeyPeriod,
			trials:   j.Trials,
			attempts: j.Attempts,
			seed:     j.Seed,
		},
	}
}

// RunAttackBatch resolves a batch of attack jobs and returns their
// counted outcomes in job order. It shares everything with RunBatch —
// dedup, the memo cache, the persistent store, the backend fan-out, the
// shard assignment and the planner/progress machinery — because attack
// jobs ARE engine runs; only their payload differs. Skipped (sharded)
// and failed jobs return zero outcomes.
func (e *Executor) RunAttackBatch(jobs []AttackJob) []attack.Outcome {
	specs := make([]runSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = attackRunSpec(j)
	}
	res := e.RunBatch(specs)
	outs := make([]attack.Outcome, len(jobs))
	for i, r := range res {
		if r.Attack != nil {
			outs[i] = attack.Outcome{Successes: r.Attack.Successes, Trials: r.Attack.Trials}
		}
	}
	return outs
}

// runAttack executes one attack job in-process. The measured counts are
// a pure function of the spec — the registry runner derives every bit
// of randomness from the spec's seed — so attack cells replay from the
// cache and distribute across workers exactly like performance runs.
func runAttack(s runSpec) RunResult {
	info, ok := attack.ByName(s.atk.name)
	if !ok {
		// specFromWire validates the name; reaching this is an engine bug.
		panic(fmt.Sprintf("experiment: running unregistered attack %q", s.atk.name))
	}
	ev := attack.Env{
		Scenario:    s.atk.scenario,
		Seed:        s.atk.seed,
		RekeyPeriod: s.atk.rekey,
	}
	if s.predName != "" {
		pred := s.predName
		ev.NewDir = func(ctrl *core.Controller) predictor.DirPredictor {
			return NewDirPredictor(pred, ctrl)
		}
	}
	out := info.Run(s.opts, ev, s.atk.trials, s.atk.attempts)
	return RunResult{Attack: &wire.AttackResult{Successes: out.Successes, Trials: out.Trials}}
}
