// Command attacksim runs the paper's proof-of-concept attacks through
// the experiment engine: the §5.5(3) training-accuracy numbers, the
// security comparison (Table 1), and the security-sweep subsystem's
// attacker-present grid (internal/secsweep).
//
// Usage:
//
//	attacksim [-poc] [-table1] [-sweep] [-quick] [-seed N]
//	          [-workers N] [-progress] [-json]
//	          [-cache DIR] [-shard I/N] [-token T]
//	          [-fleet HOST:PORT] [-fleet-lease D] [-tls-cert FILE] [-tls-key FILE]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Without a selector flag the PoC accuracy and Table 1 experiments run
// (the original attacksim surface); -sweep adds the full grid — attack
// success matrices for both core arrangements, the residual-rate vs
// re-key-period curve, the predictor cross, and the Table 1 verdicts
// recomputed through the engine. Selectors combine.
//
// Every attack cell is an engine job, so the execution flags, from
// -workers to -memprofile, are bpsim's: both binaries run their sweep
// through internal/driver, which documents them. Tables are
// byte-identical for every worker count, topology and shard split.
package main

import (
	"flag"
	"os"

	"xorbp/internal/attack"
	"xorbp/internal/driver"
	"xorbp/internal/experiment"
	"xorbp/internal/report"
	"xorbp/internal/secsweep"
)

func main() {
	poc := flag.Bool("poc", false, "run the PoC accuracy experiment")
	table1 := flag.Bool("table1", false, "run the Table 1 matrix")
	sweep := flag.Bool("sweep", false, "run the security-sweep grid (matrices, re-key curve, predictor cross, verdicts)")
	quick := flag.Bool("quick", false, "reduced iteration counts and grid dimensions")
	seed := flag.Uint64("seed", 1, "simulation seed")
	f := driver.AddFlags(flag.CommandLine)
	flag.Parse()

	cfg := attack.DefaultConfig()
	swCfg := secsweep.DefaultConfig()
	if *quick {
		cfg = attack.QuickConfig()
		swCfg = secsweep.QuickConfig()
	}
	cfg.Seed = *seed
	swCfg.Attack = cfg

	// Experiment set: the two PoC tables by default, the grid on -sweep.
	// Every one resolves its attack cells through the executor.
	measured := func(name string, build func(attack.Measurer) *report.Table) driver.Experiment {
		return driver.Experiment{Name: name, Sims: true, Run: func(e *experiment.Executor) ([]*report.Table, error) {
			return []*report.Table{secsweep.TableVia(e, build)}, nil
		}}
	}
	var exps []driver.Experiment
	runAll := !*poc && !*table1 && !*sweep
	if *poc || runAll {
		exps = append(exps, measured("poc", func(m attack.Measurer) *report.Table {
			return attack.PoCAccuracyWith(cfg, m)
		}))
	}
	if *table1 || runAll {
		exps = append(exps, measured("table1", func(m attack.Measurer) *report.Table {
			return attack.Table1With(cfg, m)
		}))
	}
	if *sweep {
		exps = append(exps, driver.Experiment{Name: "sweep", Sims: true, Run: func(e *experiment.Executor) ([]*report.Table, error) {
			return secsweep.New(swCfg, e).Tables(), nil
		}})
	}

	os.Exit(driver.Main("attacksim", f, os.Stderr, func() error {
		return driver.Run("attacksim", f, exps, os.Stdout, os.Stderr)
	}))
}
