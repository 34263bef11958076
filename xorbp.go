// Package xorbp is a from-scratch reproduction of "A Lightweight
// Isolation Mechanism for Secure Branch Predictors" (Zhao et al., DAC
// 2021): the XOR-BP / Noisy-XOR-BP content- and index-encoding defenses,
// the branch predictors they protect (Gshare, Tournament, TAGE, LTAGE,
// TAGE-SC-L, BTB, RAS), a cycle-approximate processor model with an OS
// scheduling layer, synthetic SPEC CPU 2006 workloads, the paper's
// proof-of-concept attacks, and a harness that regenerates every table
// and figure of the evaluation.
//
// This root package is the facade: it wires a secured predictor system
// in a few calls. The building blocks live in internal/ packages; the
// per-experiment runners in internal/experiment; the attacks in
// internal/attack. Command-line entry points: cmd/bpsim (performance
// figures and tables, Table 5's hardware cost included) and
// cmd/attacksim (PoC attacks and Table 1).
package xorbp

import (
	"fmt"
	"slices"
	"strings"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/experiment"
	"xorbp/internal/workload"
)

// Mechanism re-exports the isolation mechanism selector.
type Mechanism = core.Mechanism

// The isolation mechanisms of the paper.
const (
	// Baseline is the unprotected shared predictor.
	Baseline = core.Baseline
	// CompleteFlush flushes every table on a switch event.
	CompleteFlush = core.CompleteFlush
	// PreciseFlush flushes only the switching thread's entries.
	PreciseFlush = core.PreciseFlush
	// XOR is content encoding only (XOR-BP).
	XOR = core.XOR
	// NoisyXOR is content plus index encoding (Noisy-XOR-BP), the paper's
	// full proposal.
	NoisyXOR = core.NoisyXOR
)

// Options re-exports the isolation configuration.
type Options = core.Options

// DefaultOptions returns the paper's recommended configuration:
// Noisy-XOR-BP with Enhanced-XOR-PHT and key rotation on privilege
// changes.
func DefaultOptions() Options { return core.DefaultOptions() }

// OptionsFor returns Options for a named mechanism with paper defaults.
func OptionsFor(m Mechanism) Options { return core.OptionsFor(m) }

// Config describes a simulated system.
type Config struct {
	// Isolation selects and configures the defense.
	Isolation Options
	// Predictor names the direction predictor: "gshare", "tournament",
	// "ltage", "tage_sc_l" (the gem5 set), "perceptron" or "tage" (the
	// FPGA prototype, the default); see Predictors().
	Predictor string
	// SMTThreads is the number of hardware threads, 1 to 8 and at most
	// one per benchmark (0 = 1). 1 selects the FPGA single-threaded core
	// configuration; >1 the gem5 SMT model.
	SMTThreads int
	// TimerPeriod is the scheduler quantum in cycles (0 = 2M, the scaled
	// stand-in for Linux's 8M-cycle slice).
	TimerPeriod uint64
	// Benchmarks are the modelled SPEC 2006 workloads to run (see
	// Benchmarks() for names). On a single-threaded core they time-share;
	// on SMT they run one per hardware thread.
	Benchmarks []string
	// Seed makes the whole simulation reproducible.
	Seed uint64
}

// System is a ready-to-run simulated processor with a secured predictor.
type System struct {
	core *cpu.Core
	ctrl *core.Controller
	cfg  Config
}

// New builds a System.
func New(cfg Config) (*System, error) {
	if cfg.Predictor == "" {
		cfg.Predictor = "tage"
	}
	if cfg.SMTThreads == 0 {
		cfg.SMTThreads = 1
	}
	if cfg.TimerPeriod == 0 {
		cfg.TimerPeriod = 2_000_000
	}
	if len(cfg.Benchmarks) == 0 {
		return nil, fmt.Errorf("xorbp: no benchmarks given")
	}
	if preds := Predictors(); !slices.Contains(preds, cfg.Predictor) {
		return nil, fmt.Errorf("xorbp: unknown predictor %q (available: %s)", cfg.Predictor, strings.Join(preds, ", "))
	}
	switch {
	case cfg.SMTThreads < 1 || cfg.SMTThreads > core.MaxHWThreads:
		return nil, fmt.Errorf("xorbp: %d hardware threads outside 1..%d", cfg.SMTThreads, core.MaxHWThreads)
	case cfg.SMTThreads > len(cfg.Benchmarks):
		return nil, fmt.Errorf("xorbp: %d hardware threads for %d benchmarks", cfg.SMTThreads, len(cfg.Benchmarks))
	}
	var progs []workload.Program
	for i, name := range cfg.Benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		progs = append(progs, workload.NewGenerator(p, cfg.Seed*1000+uint64(i)))
	}
	ctrl := core.NewController(cfg.Isolation, cfg.Seed)
	dir := experiment.NewDirPredictor(cfg.Predictor, ctrl)
	var mcfg cpu.Config
	if cfg.SMTThreads == 1 {
		mcfg = cpu.FPGAConfig()
	} else {
		mcfg = cpu.Gem5Config(cfg.SMTThreads)
	}
	c := cpu.New(mcfg, cpu.DefaultScheduler(cfg.TimerPeriod), ctrl, dir)
	c.Assign(progs...)
	return &System{core: c, ctrl: ctrl, cfg: cfg}, nil
}

// Result summarizes a measurement window.
type Result struct {
	// Cycles is the measured cycle count: target-attributed cycles on a
	// single-threaded core, wall cycles on SMT.
	Cycles uint64
	// Instructions retired by the target (first) benchmark.
	Instructions uint64
	// MPKI is the target's direction mispredictions per kilo-instruction.
	MPKI float64
	// PrivilegeSwitches and ContextSwitches during the window.
	PrivilegeSwitches, ContextSwitches uint64
}

// Run executes warmup instructions (untimed), then measures a window of
// measure instructions and returns the result. Both counts apply to the
// target benchmark on a single-threaded core and to the combined
// instruction stream on SMT (the paper's methodologies).
func (s *System) Run(warmup, measure uint64) Result {
	smt := s.cfg.SMTThreads > 1
	if smt {
		s.core.RunTotalInstructions(warmup)
	} else {
		s.core.RunTargetInstructions(warmup)
	}
	s.core.ResetStats()
	ctx0, priv0, _, _ := s.ctrl.Stats()

	var cycles uint64
	if smt {
		cycles = s.core.RunTotalInstructions(measure)
	} else {
		s.core.RunTargetInstructions(measure)
		cycles = s.core.ThreadCyclesOf(0, 0)
	}
	ctx1, priv1, _, _ := s.ctrl.Stats()
	st := s.core.ThreadStatsOf(0, 0)
	return Result{
		Cycles:            cycles,
		Instructions:      st.Instructions,
		MPKI:              st.MPKI(),
		PrivilegeSwitches: priv1 - priv0,
		ContextSwitches:   ctx1 - ctx0,
	}
}

// Overhead runs cfg against the same configuration with Baseline
// isolation and returns the normalized performance overhead — the
// measurement behind every performance figure in the paper.
func Overhead(cfg Config, warmup, measure uint64) (float64, error) {
	base := cfg
	base.Isolation = OptionsFor(Baseline)
	bs, err := New(base)
	if err != nil {
		return 0, err
	}
	ms, err := New(cfg)
	if err != nil {
		return 0, err
	}
	br := bs.Run(warmup, measure)
	mr := ms.Run(warmup, measure)
	return float64(mr.Cycles)/float64(br.Cycles) - 1, nil
}

// Benchmarks lists the modelled SPEC CPU 2006 workload names.
func Benchmarks() []string { return workload.Names() }

// Predictors lists the available direction predictor names.
func Predictors() []string {
	return append(experiment.PredictorNames(), "tage")
}
