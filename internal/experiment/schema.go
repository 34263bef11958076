package experiment

import (
	"context"
	"fmt"

	"xorbp/internal/attack"
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

// SchemaVersion identifies the persistent run cache's encoding: the
// wire schema's version. The engine, the bpserve worker and every bpsim
// invocation sharing a cache directory agree on keys exactly when they
// agree on this string.
func SchemaVersion() string { return wire.SchemaVersion() }

// specToWire renders a spec in its canonical wire form. Options are
// normalized first, so a zero Scope/Codec/Scrambler and the explicit
// paper defaults — which the controller runs identically — map to the
// same wire bytes, and therefore the same cache key, everywhere.
func specToWire(s runSpec) wire.Spec {
	o := s.opts.Normalized()
	w := wire.Spec{
		Kind:      s.kind,
		Opts:      o,
		Codec:     o.Codec.Name(),     //bpvet:allow Codec.Name implementations are compile-time string literals; the registry round-trip test pins them
		Scrambler: o.Scrambler.Name(), //bpvet:allow Scrambler.Name implementations are compile-time string literals; the registry round-trip test pins them
		Pred:      s.predName,
		Cfg:       s.cfg,
		Timer:     s.timer,
		Threads:   append([]string(nil), s.names...),
		Scale:     s.scale,
	}
	if s.kind == wire.KindAttack {
		w.Attack = &wire.AttackSpec{
			Name:        s.atk.name,
			Scenario:    s.atk.scenario.String(),
			RekeyPeriod: s.atk.rekey,
			Trials:      s.atk.trials,
			Attempts:    s.atk.attempts,
			Seed:        s.atk.seed,
		}
	}
	// The interface values are excluded from the encoding (json:"-");
	// blank them anyway so a wire.Spec compares by its canonical content.
	w.Opts.Codec, w.Opts.Scrambler = nil, nil
	return w
}

// specFromWire reconstructs a runnable spec from its wire form,
// validating every name field against the local registries. A worker
// must reject a spec it cannot faithfully execute — a silently-wrong
// result would poison every cache sharing the schema.
func specFromWire(w wire.Spec) (runSpec, error) {
	codec, ok := core.CodecByName(w.Codec)
	if !ok {
		return runSpec{}, fmt.Errorf("experiment: unknown codec %q", w.Codec)
	}
	scrambler, ok := core.ScramblerByName(w.Scrambler)
	if !ok {
		return runSpec{}, fmt.Errorf("experiment: unknown scrambler %q", w.Scrambler)
	}
	opts := w.Opts
	opts.Codec, opts.Scrambler = codec, scrambler

	switch w.Kind {
	case wire.KindAttack:
		return attackSpecFromWire(w, opts)
	case "":
		// Performance run: fall through to the original validation.
	default:
		return runSpec{}, fmt.Errorf("experiment: unknown run kind %q", w.Kind)
	}

	if !validPredictor(w.Pred) {
		return runSpec{}, fmt.Errorf("experiment: unknown predictor %q", w.Pred)
	}
	if w.Attack != nil {
		return runSpec{}, fmt.Errorf("experiment: performance spec carries an attack payload")
	}
	if len(w.Threads) == 0 {
		return runSpec{}, fmt.Errorf("experiment: spec has no software threads")
	}
	for _, n := range w.Threads {
		if _, err := workload.ByName(n); err != nil {
			return runSpec{}, fmt.Errorf("experiment: %w", err)
		}
	}
	if w.Scale.MeasureInstr == 0 {
		return runSpec{}, fmt.Errorf("experiment: spec has a zero measurement budget")
	}
	if err := checkCore(w); err != nil {
		return runSpec{}, err
	}
	return runSpec{
		opts:     opts,
		predName: w.Pred,
		cfg:      w.Cfg,
		timer:    w.Timer,
		names:    append([]string(nil), w.Threads...),
		scale:    w.Scale,
	}, nil
}

// checkCore rejects a core the simulator cannot run: each case below
// panics while the core is built, divides by zero in the cycle loop or
// never finishes — a zero timer period takes an interrupt at every
// fetch-group entry, so the target never fetches.
func checkCore(w wire.Spec) error {
	c := w.Cfg
	switch {
	case c.HWThreads < 1 || c.HWThreads > core.MaxHWThreads:
		return fmt.Errorf("experiment: hw_threads %d outside 1..%d", c.HWThreads, core.MaxHWThreads)
	case c.HWThreads > len(w.Threads):
		return fmt.Errorf("experiment: %d hardware threads for %d software threads", c.HWThreads, len(w.Threads))
	case c.FetchWidth < 1:
		return fmt.Errorf("experiment: fetch_width %d < 1", c.FetchWidth)
	case c.RASDepth < 1:
		return fmt.Errorf("experiment: ras_depth %d < 1", c.RASDepth)
	case !bitutil.IsPow2(uint64(c.BTB.Sets)):
		return fmt.Errorf("experiment: btb sets %d is not a power of two", c.BTB.Sets)
	case c.BTB.Ways == 0:
		return fmt.Errorf("experiment: btb has zero ways")
	case w.Timer == 0:
		return fmt.Errorf("experiment: zero timer period")
	}
	return nil
}

// attackSpecFromWire validates and reconstructs an attack job. Like the
// performance path, every name field is checked against the local
// registries — a worker must reject a job it cannot faithfully execute.
func attackSpecFromWire(w wire.Spec, opts core.Options) (runSpec, error) {
	if w.Attack == nil {
		return runSpec{}, fmt.Errorf("experiment: attack spec has no attack payload")
	}
	info, ok := attack.ByName(w.Attack.Name)
	if !ok {
		return runSpec{}, fmt.Errorf("experiment: unknown attack %q", w.Attack.Name)
	}
	sc, ok := attack.ScenarioByName(w.Attack.Scenario)
	if !ok {
		return runSpec{}, fmt.Errorf("experiment: unknown attack scenario %q", w.Attack.Scenario)
	}
	if info.SingleOnly && sc != attack.SingleThreaded {
		// The runner would silently measure the single-threaded variant;
		// caching that under an SMT key would mislabel the result forever.
		return runSpec{}, fmt.Errorf("experiment: attack %q only exists on the single-threaded scenario", w.Attack.Name)
	}
	if w.Pred != "" && !validPredictor(w.Pred) {
		return runSpec{}, fmt.Errorf("experiment: unknown predictor %q", w.Pred)
	}
	if w.Attack.Trials <= 0 {
		return runSpec{}, fmt.Errorf("experiment: attack spec has no trials")
	}
	return runSpec{
		kind:     wire.KindAttack,
		opts:     opts,
		predName: w.Pred,
		atk: attackCell{
			name:     w.Attack.Name,
			scenario: sc,
			rekey:    w.Attack.RekeyPeriod,
			trials:   w.Attack.Trials,
			attempts: w.Attack.Attempts,
			seed:     w.Attack.Seed,
		},
	}, nil
}

// validPredictor mirrors NewDirPredictor's accepted names without
// constructing anything.
func validPredictor(name string) bool {
	switch name {
	case "gshare", "perceptron", "tournament", "ltage", "tage_sc_l", "tage":
		return true
	}
	return false
}

// Backend resolves one canonical spec to its result. The Executor
// dispatches every cache miss through its backend, so swapping the
// in-process pool for a pull-queue worker fleet (fleet.Backend) changes
// where simulations run but nothing about what they compute: results
// are pure functions of the spec under either backend.
type Backend interface {
	Run(ctx context.Context, spec wire.Spec) (RunResult, error)
}

// LocalBackend executes specs in-process. It is the Executor's default
// backend and the execution core of the bpserve pull worker.
type LocalBackend struct{}

// Run decodes and simulates one spec.
func (LocalBackend) Run(_ context.Context, spec wire.Spec) (RunResult, error) {
	s, err := specFromWire(spec)
	if err != nil {
		return RunResult{}, err
	}
	return run(s), nil
}
