// Package secsweep is the security-sweep subsystem: it promotes the
// paper's proof-of-concept attacks (internal/attack) to first-class
// experiment-engine jobs and grows the attacker-present grid far beyond
// Table 1 — every registered attack crossed with both core
// arrangements, the isolation mechanisms, a range of re-key periods and
// the registered direction predictors, in the style of the grids
// secure-BPU evaluations like STBPU and CIBPU report.
//
// Because every cell is an engine job (experiment.AttackJob), the grid
// inherits the whole execution stack for free: the in-memory memo
// cache, the persistent run cache (warm re-runs simulate nothing), the
// bounded worker pool, pull fleets of bpserve -pull workers and static
// shard partitioning. Wide cells are split into independent seed batches so
// they parallelize and distribute like narrow ones; batch outcomes are
// integer counts, so merging them is exact and the rendered tables are
// byte-identical for every worker count and backend.
package secsweep

import (
	"fmt"

	"xorbp/internal/attack"
	"xorbp/internal/core"
	"xorbp/internal/experiment"
	"xorbp/internal/report"
)

// Config sizes the sweep.
type Config struct {
	// Attack carries the per-attack iteration/trial counts and the seed
	// (the same knobs attack.Table1 takes).
	Attack attack.Config
	// RekeyPeriods are the timer periods (in scheduling events) the
	// re-key curve sweeps; the paper's event-driven design is period 1.
	RekeyPeriods []uint64
	// Predictors are the direction predictors the PHT-attack grid
	// covers; "" is the PoC's default bimodal table.
	Predictors []string
	// Batches splits each wide cell into this many independent-seed
	// trial batches so one cell can occupy several workers (or several
	// machines). 1 disables splitting. Verdict cells are never split:
	// they must measure exactly what attack.Table1 measures.
	Batches int
}

// DefaultConfig sweeps at paper scale.
func DefaultConfig() Config {
	return Config{
		Attack:       attack.DefaultConfig(),
		RekeyPeriods: []uint64{1, 2, 4, 8, 16, 64},
		Predictors:   append([]string{""}, experiment.PredictorNames()...),
		Batches:      4,
	}
}

// QuickConfig sweeps at smoke-test scale.
func QuickConfig() Config {
	return Config{
		Attack:       attack.QuickConfig(),
		RekeyPeriods: []uint64{1, 4, 16},
		Predictors:   []string{"", "gshare", "perceptron"},
		Batches:      2,
	}
}

// Sweep renders the security grid through an executor. Run the same
// sweep against a planning executor first (experiment.NewPlanner) and
// Plan the result into the real one to get session-wide progress/ETA,
// exactly like bpsim's figure sessions.
type Sweep struct {
	cfg  Config
	exec *experiment.Executor
}

// New creates a sweep over the executor.
func New(cfg Config, exec *experiment.Executor) *Sweep {
	if cfg.Batches < 1 {
		cfg.Batches = 1
	}
	return &Sweep{cfg: cfg, exec: exec}
}

// Tables renders the whole subsystem in report order: the two
// success-rate matrices, the re-key residual curve, the predictor
// cross, and the Table 1 verdict reproduction.
func (s *Sweep) Tables() []*report.Table {
	return []*report.Table{
		s.Matrix(attack.SingleThreaded),
		s.Matrix(attack.SMT),
		s.RekeyCurve(),
		s.PredictorMatrix(),
		s.Verdicts(),
	}
}

// variant is one isolation-mechanism row of the matrices.
type variant struct {
	name  string
	opts  core.Options
	rekey uint64
}

// variants are the matrix rows: no protection, the heavyweight flush on
// every switch, and the paper's two encoding designs (event-driven).
func variants() []variant {
	return []variant{
		{"Baseline", core.OptionsFor(core.Baseline), 0},
		{"CompleteFlush", core.OptionsFor(core.CompleteFlush), 0},
		{"XOR-BP", core.OptionsFor(core.XOR), 0},
		{"Noisy-XOR-BP", core.OptionsFor(core.NoisyXOR), 0},
	}
}

// curveAttacks are the re-key curve's columns: the attacks whose
// defense on a time-shared core is exactly the switch-driven key
// rotation/flush — the state the timer knob trades away.
func curveAttacks() []string {
	return []string{"btb_training", "pht_training", "pht_steering", "branch_scope", "sbpa"}
}

// predictorAttacks are the predictor cross's columns: the attacks that
// drive the direction predictor.
func predictorAttacks() []string {
	return []string{"pht_training", "pht_steering", "branch_scope", "reference"}
}

// cellSize maps an attack to its trial/attempt budget at this config's
// scale, mirroring attack.Table1's conventions. Attempts are nonzero
// only for attacks whose registry entry uses them — a dead knob baked
// into a cell's wire key would invalidate cache entries for nothing.
func (c Config) cellSize(name string) (trials, attempts int) {
	a := c.Attack
	if info, ok := attack.ByName(name); ok && info.UsesAttempts {
		attempts = a.Attempts
	}
	switch name {
	case "btb_training", "pht_training":
		return a.Iterations, attempts
	case "pht_steering":
		return maxInt(a.Iterations/10, 1), attempts
	case "sbpa_blanket":
		return maxInt(a.Trials/4, 1), attempts
	case "aslr":
		return maxInt(a.Trials/10, 1), attempts
	default: // branch_scope, branch_scope_detector, sbpa, reference
		return a.Trials, attempts
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// grid accumulates the batch jobs of a table's logical cells so one
// RunAttackBatch call resolves everything concurrently.
type grid struct {
	cfg   Config
	jobs  []experiment.AttackJob
	spans [][2]int // [start, end) into jobs, one per cell
}

// addCell splits one logical cell into its independent-seed batch jobs
// and returns the cell's index.
func (g *grid) addCell(j experiment.AttackJob) int {
	start := len(g.jobs)
	b := g.cfg.Batches
	if b > j.Trials {
		b = j.Trials
	}
	if b < 1 {
		b = 1
	}
	base, extra := j.Trials/b, j.Trials%b
	for i := 0; i < b; i++ {
		bj := j
		bj.Trials = base
		if i < extra {
			bj.Trials++
		}
		if bj.Trials == 0 {
			continue
		}
		// Batch 0 keeps the cell's seed; later batches offset it. Every
		// RNG stream in the harness passes raw seeds through a mixer, so
		// adjacent seeds decorrelate fully.
		bj.Seed = j.Seed + uint64(i)
		g.jobs = append(g.jobs, bj)
	}
	g.spans = append(g.spans, [2]int{start, len(g.jobs)})
	return len(g.spans) - 1
}

// resolve runs every accumulated job through the executor and merges
// batches back into per-cell outcomes (exact: integer sums in span
// order).
func (g *grid) resolve(exec *experiment.Executor) []attack.Outcome {
	outs := exec.RunAttackBatch(g.jobs)
	merged := make([]attack.Outcome, len(g.spans))
	for c, sp := range g.spans {
		for i := sp[0]; i < sp[1]; i++ {
			merged[c] = merged[c].Add(outs[i])
		}
	}
	return merged
}

// fmtCell renders a merged outcome as a percentage.
func fmtCell(o attack.Outcome) string {
	return fmt.Sprintf("%.1f%%", o.Rate()*100)
}

// Matrix renders the success-rate matrix for one core arrangement: one
// row per isolation mechanism, one column per registered attack, the
// default (bimodal) predictor, event-driven re-keying.
func (s *Sweep) Matrix(sc attack.Scenario) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Security sweep: attack success matrix (%s)", scenarioLabel(sc)),
		Header: []string{"mechanism"},
		Caption: "Measured success rate (training/recovery attacks) or inference\n" +
			"accuracy (perception/contention attacks, chance = 50%) per\n" +
			"registered attack; PoC bimodal direction predictor, event-driven\n" +
			"re-keying. Table 1's verdicts classify these same channels.",
	}
	var cols []string
	for _, name := range attack.Names() {
		info, _ := attack.ByName(name)
		if sc == attack.SMT && info.SingleOnly {
			continue
		}
		cols = append(cols, name)
		t.Header = append(t.Header, name)
	}
	g := &grid{cfg: s.cfg}
	type rowCells struct {
		v     variant
		cells []int
	}
	var rows []rowCells
	for _, v := range variants() {
		r := rowCells{v: v}
		for _, name := range cols {
			trials, attempts := s.cfg.cellSize(name)
			r.cells = append(r.cells, g.addCell(experiment.AttackJob{
				Attack:      name,
				Opts:        v.opts,
				Scenario:    sc,
				RekeyPeriod: v.rekey,
				Trials:      trials,
				Attempts:    attempts,
				Seed:        s.cfg.Attack.Seed,
			}))
		}
		rows = append(rows, r)
	}
	outs := g.resolve(s.exec)
	for _, r := range rows {
		cells := []string{r.v.name}
		for _, c := range r.cells {
			cells = append(cells, fmtCell(outs[c]))
		}
		t.AddRow(cells...)
	}
	return t
}

// RekeyCurve renders the residual-rate-vs-re-key-period curve: the
// lightweight-isolation knob Table 1 only samples at its extremes. Rows
// sweep the timer period for XOR-BP (key rotation) and CompleteFlush
// (table flush) on the time-shared core; period 1 re-keys on every
// scheduling event (the paper's design, up to timer asynchrony) and
// large periods approach the unprotected baseline.
func (s *Sweep) RekeyCurve() *report.Table {
	t := &report.Table{
		Title:  "Security sweep: residual attack rate vs re-key/flush period",
		Header: append([]string{"mechanism", "period"}, curveAttacks()...),
		Caption: "Single-threaded core; period in scheduling events between timer\n" +
			"firings (expected — the timer is asynchronous to the attack loop).\n" +
			"Frequent re-keying buys security with warm-up overhead (Figures\n" +
			"1-3); this curve prices the other side of that trade.",
	}
	mechs := []variant{
		{"XOR-BP", core.OptionsFor(core.XOR), 0},
		{"CompleteFlush", core.OptionsFor(core.CompleteFlush), 0},
	}
	g := &grid{cfg: s.cfg}
	type rowCells struct {
		mech   string
		period uint64
		cells  []int
	}
	var rows []rowCells
	for _, m := range mechs {
		for _, p := range s.cfg.RekeyPeriods {
			r := rowCells{mech: m.name, period: p}
			for _, name := range curveAttacks() {
				trials, attempts := s.cfg.cellSize(name)
				r.cells = append(r.cells, g.addCell(experiment.AttackJob{
					Attack:      name,
					Opts:        m.opts,
					Scenario:    attack.SingleThreaded,
					RekeyPeriod: p,
					Trials:      trials,
					Attempts:    attempts,
					Seed:        s.cfg.Attack.Seed,
				}))
			}
			rows = append(rows, r)
		}
	}
	outs := g.resolve(s.exec)
	for _, r := range rows {
		cells := []string{r.mech, fmt.Sprintf("%d", r.period)}
		for _, c := range r.cells {
			cells = append(cells, fmtCell(outs[c]))
		}
		t.AddRow(cells...)
	}
	return t
}

// PredictorMatrix renders the predictor cross: every registered
// direction predictor against the PHT-driven attacks, unprotected and
// under the paper's full mechanism — does the defense hold regardless
// of predictor organization (2-bit counters, weight tables, tagged
// geometric histories)?
func (s *Sweep) PredictorMatrix() *report.Table {
	t := &report.Table{
		Title:  "Security sweep: PHT attacks x direction predictors",
		Header: []string{"predictor"},
		Caption: "Single-threaded core. base = Baseline (no isolation),\n" +
			"nxor = Noisy-XOR-BP. A mechanism that only defends the bimodal\n" +
			"PoC table would show here.",
	}
	for _, name := range predictorAttacks() {
		t.Header = append(t.Header, name+"/base", name+"/nxor")
	}
	base := core.OptionsFor(core.Baseline)
	nxor := core.OptionsFor(core.NoisyXOR)
	g := &grid{cfg: s.cfg}
	type rowCells struct {
		pred  string
		cells []int
	}
	var rows []rowCells
	for _, pred := range s.cfg.Predictors {
		r := rowCells{pred: predLabel(pred)}
		for _, name := range predictorAttacks() {
			trials, attempts := s.cfg.cellSize(name)
			for _, opts := range []core.Options{base, nxor} {
				r.cells = append(r.cells, g.addCell(experiment.AttackJob{
					Attack:   name,
					Opts:     opts,
					Scenario: attack.SingleThreaded,
					Pred:     pred,
					Trials:   trials,
					Attempts: attempts,
					Seed:     s.cfg.Attack.Seed,
				}))
			}
		}
		rows = append(rows, r)
	}
	outs := g.resolve(s.exec)
	for _, r := range rows {
		cells := []string{r.pred}
		for _, c := range r.cells {
			cells = append(cells, fmtCell(outs[c]))
		}
		t.AddRow(cells...)
	}
	return t
}

// Verdicts reproduces Table 1 through the engine: the exact
// measurements attack.Table1 takes, resolved as (cacheable,
// distributable) engine jobs, classified by the exact same rules — so
// its verdicts are guaranteed equal to the in-process table's.
func (s *Sweep) Verdicts() *report.Table {
	return TableVia(s.exec, func(m attack.Measurer) *report.Table {
		return attack.Table1With(s.cfg.Attack, m)
	})
}

// TableVia renders any measurement-driven attack table through the
// engine in three steps: a collect pass enumerates every request the
// builder can make (the builder sees zero rates, which classify as
// Defend and therefore trigger every conditional fallback — a superset
// of any real pass), one engine batch resolves them all concurrently,
// and a replay pass renders the table from the batch's outcomes.
// Verdict cells are deliberately not batch-split: each request maps to
// exactly one job, so the measured rate is bit-identical to the
// in-process measurer's.
func TableVia(exec *experiment.Executor, build func(attack.Measurer) *report.Table) *report.Table {
	var reqs []attack.Request
	build(func(r attack.Request) float64 {
		reqs = append(reqs, r)
		return 0
	})
	jobs := make([]experiment.AttackJob, len(reqs))
	for i, r := range reqs {
		jobs[i] = experiment.JobFor(r)
	}
	outs := exec.RunAttackBatch(jobs)
	memo := make(map[reqKey]float64, len(reqs))
	for i, r := range reqs {
		memo[keyOf(r)] = outs[i].Rate()
	}
	return build(func(r attack.Request) float64 {
		rate, ok := memo[keyOf(r)]
		if !ok {
			// The collect pass's zero rates request a superset of every
			// real pass; a miss is a builder bug, not a runtime state.
			panic(fmt.Sprintf("secsweep: replay pass requested uncollected cell %+v", r))
		}
		return rate
	})
}

// reqKey is a request's comparable identity: options normalized, the
// interface fields carried by registered name (like the wire form).
type reqKey struct {
	attackName string
	opts       core.Options
	codec      string
	scrambler  string
	scenario   attack.Scenario
	trials     int
	attempts   int
	seed       uint64
}

func keyOf(r attack.Request) reqKey {
	o := r.Opts.Normalized()
	k := reqKey{
		attackName: r.Attack,
		opts:       o,
		codec:      o.Codec.Name(),
		scrambler:  o.Scrambler.Name(),
		scenario:   r.Scenario,
		trials:     r.Trials,
		attempts:   r.Attempts,
		seed:       r.Seed,
	}
	k.opts.Codec, k.opts.Scrambler = nil, nil
	return k
}

func scenarioLabel(sc attack.Scenario) string {
	if sc == attack.SMT {
		return "SMT core"
	}
	return "single-threaded core"
}

func predLabel(p string) string {
	if p == "" {
		return "bimodal"
	}
	return p
}
