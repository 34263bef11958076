// Package experiment contains one runner per table and figure in the
// paper's evaluation (§6). Each runner builds the matching processor
// configuration, executes the Table 3 workloads under the mechanisms the
// figure compares, and renders the same rows/series the paper reports.
//
// Runs are deterministic for a given Scale and seed.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"xorbp/internal/attack"
	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/gshare"
	"xorbp/internal/perceptron"
	"xorbp/internal/predictor"
	"xorbp/internal/report"
	"xorbp/internal/tage"
	"xorbp/internal/tagescl"
	"xorbp/internal/tournament"
	"xorbp/internal/wire"
)

// Scale sets simulation sizes. It is an alias of the canonical wire
// type (internal/wire.Scale) so specs serialize identically everywhere;
// see that type for field semantics and EXPERIMENTS.md for calibration.
type Scale = wire.Scale

// FullScale is the configuration used by cmd/bpsim: large enough for
// stable estimates (tens of isolation events per run).
func FullScale() Scale {
	return Scale{
		WarmupInstr:     4_000_000,
		MeasureInstr:    16_000_000,
		SMTWarmupInstr:  8_000_000,
		SMTMeasureInstr: 48_000_000,
		TimerPeriods:    [3]uint64{1_000_000, 2_000_000, 3_000_000},
		TimerLabels:     [3]string{"4M", "8M", "12M"},
		Seed:            1,
	}
}

// BenchScale is a reduced configuration for quick full-structure runs
// (bpsim -scale bench) and the fork sweep gate: same structure, noisier
// estimates.
func BenchScale() Scale {
	return Scale{
		WarmupInstr:     1_000_000,
		MeasureInstr:    4_000_000,
		SMTWarmupInstr:  2_000_000,
		SMTMeasureInstr: 14_000_000,
		TimerPeriods:    [3]uint64{500_000, 1_000_000, 1_500_000},
		TimerLabels:     [3]string{"4M", "8M", "12M"},
		Seed:            1,
	}
}

// MicroScale is the smallest stable configuration: tables are
// structurally complete but magnitudes are not calibrated. It backs
// engine tests (serial vs parallel vs distributed determinism) and
// quick smoke runs where only the plumbing is under test.
func MicroScale() Scale {
	return Scale{
		WarmupInstr:     75_000,
		MeasureInstr:    300_000,
		SMTWarmupInstr:  150_000,
		SMTMeasureInstr: 1_000_000,
		TimerPeriods:    [3]uint64{50_000, 100_000, 150_000},
		TimerLabels:     [3]string{"4M", "8M", "12M"},
		Seed:            1,
	}
}

// PredictorNames lists the sweep-grid direction predictors: the gem5
// predictors of Figure 10 in the paper's accuracy order (least accurate
// first), extended with the perceptron (a ROADMAP growth item — the
// paper never evaluates a weight-table predictor).
func PredictorNames() []string {
	return []string{"gshare", "perceptron", "tournament", "ltage", "tage_sc_l"}
}

// NewDirPredictor constructs a named predictor against a controller.
// Valid names: gshare, tournament, ltage, tage_sc_l (gem5 set),
// perceptron, and tage (the FPGA prototype predictor).
func NewDirPredictor(name string, ctrl *core.Controller) predictor.DirPredictor {
	switch name {
	case "gshare":
		return gshare.New(gshare.Gem5Config(), ctrl)
	case "perceptron":
		return perceptron.New(perceptron.DefaultConfig(), ctrl)
	case "tournament":
		return tournament.New(tournament.Gem5Config(), ctrl)
	case "ltage":
		return tage.New(tage.LTAGEConfig(), ctrl)
	case "tage_sc_l":
		return tagescl.New(tagescl.Gem5Config(), ctrl)
	case "tage":
		return tage.New(tage.FPGAConfig(), ctrl)
	default:
		panic(fmt.Sprintf("experiment: unknown predictor %q", name))
	}
}

// RunResult is one simulation's measurement window. It is an alias of
// the canonical wire type (internal/wire.Result), so results computed
// by any backend — in-process, a pull worker, cache replay — are the
// same type with the same encoding.
type RunResult = wire.Result

// runSpec fully describes one simulation — a performance run (kind "")
// or an attack job (kind wire.KindAttack, payload in atk).
type runSpec struct {
	kind     string
	opts     core.Options
	predName string
	cfg      cpu.Config
	timer    uint64
	names    []string // software threads, first = target
	scale    Scale
	atk      attackCell
}

// attackCell is the attack-job payload of a runSpec: the comparable
// in-process mirror of wire.AttackSpec.
type attackCell struct {
	name     string
	scenario attack.Scenario
	rekey    uint64
	trials   int
	attempts int
	seed     uint64
}

// run executes one simulation cold: warmup, stat reset, measurement —
// or, for an attack job, the registered PoC measurement. Performance
// runs drive the resumable lifecycle machine (fork.go) straight through;
// the fork path runs the same machine segmented around a divergence
// snapshot, which is what makes the two paths byte-identical.
func run(s runSpec) RunResult {
	if s.kind == wire.KindAttack {
		return runAttack(s)
	}
	m := newSim(s)
	m.advance(cpu.NoCycleLimit)
	return m.result()
}

// Overhead is the normalized performance overhead of a mechanism run
// relative to a baseline run on identical workloads.
func Overhead(mechCycles, baseCycles uint64) float64 {
	return float64(mechCycles)/float64(baseCycles) - 1
}

// Table is the shared aligned-text table type (see internal/report).
type Table = report.Table

// pct formats a ratio as a signed percentage.
func pct(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }

// fmtCount renders a cycle or instruction count compactly for column
// headers (1500 -> "1.5k", 2_000_000 -> "2M").
func fmtCount(v uint64) string {
	switch {
	case v >= 1_000_000 && v%100_000 == 0:
		return trimZero(float64(v)/1e6) + "M"
	case v >= 1_000:
		return trimZero(float64(v)/1e3) + "k"
	default:
		return fmt.Sprintf("%d", v)
	}
}

// trimZero formats with one decimal, dropping a trailing ".0".
func trimZero(f float64) string {
	s := fmt.Sprintf("%.1f", f)
	return strings.TrimSuffix(s, ".0")
}

// mean averages a slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// sortedKeys returns map keys in order (for deterministic rendering).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
