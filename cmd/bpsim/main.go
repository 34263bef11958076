// Command bpsim regenerates the paper's performance tables and figures.
//
// Usage:
//
//	bpsim -exp table2|table3|workloads|fig1|fig2|fig3|fig7|fig8|fig9|fig10|rekey|table4|table5|mpki|residency|all
//	      [-scale full|bench|micro] [-seed N] [-workers N] [-progress] [-json]
//	      [-cache DIR] [-shard I/N] [-token T]
//	      [-fleet HOST:PORT] [-fleet-lease D] [-tls-cert FILE] [-tls-key FILE]
//	      [-cache-gc] [-gc-age D] [-gc-max-bytes N]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// -exp, -scale and -seed pick what to simulate. The execution flags,
// from -workers to -memprofile, are shared with attacksim and
// documented in internal/driver, which runs the sweep. Tables are
// deterministic for any worker count, topology and shard split.
//
// -cache-gc garbage-collects the cache directory instead of running
// experiments: every schema subdirectory but the current run schema's
// is removed as superseded, then entries older than -gc-age, then the
// oldest survivors until the directory fits -gc-max-bytes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"xorbp/internal/driver"
	"xorbp/internal/experiment"
	"xorbp/internal/hwcost"
	"xorbp/internal/report"
	"xorbp/internal/runcache"
	"xorbp/internal/workload"
)

// order is the canonical experiment list: the -exp flag accepts exactly
// these names (plus "all", which runs them in this order). The package
// doc and the flag help are derived from / reconciled with this slice.
var order = []string{"table2", "table3", "workloads", "fig1", "fig2", "fig3",
	"fig7", "fig8", "fig9", "fig10", "rekey", "table4", "table5", "mpki", "residency"}

// experiments maps every name in order to its experiment at scale.
func experiments(scale experiment.Scale) map[string]driver.Experiment {
	sim := func(f func(*experiment.Session) *experiment.Table) driver.Experiment {
		return driver.Experiment{Sims: true, Run: func(e *experiment.Executor) ([]*report.Table, error) {
			return []*report.Table{f(experiment.NewSessionWith(scale, e))}, nil
		}}
	}
	static := func(f func() *experiment.Table) driver.Experiment {
		return driver.Experiment{Run: func(*experiment.Executor) ([]*report.Table, error) {
			return []*report.Table{f()}, nil
		}}
	}
	return map[string]driver.Experiment{
		"fig1":      sim((*experiment.Session).Figure1),
		"fig2":      sim((*experiment.Session).Figure2),
		"fig3":      sim((*experiment.Session).Figure3),
		"fig7":      sim((*experiment.Session).Figure7),
		"fig8":      sim((*experiment.Session).Figure8),
		"fig9":      sim((*experiment.Session).Figure9),
		"fig10":     sim((*experiment.Session).Figure10),
		"rekey":     sim((*experiment.Session).RekeySweep),
		"table2":    static(experiment.Table2),
		"table3":    static(experiment.Table3),
		"table4":    sim((*experiment.Session).Table4),
		"table5":    static(hwcost.Table5),
		"mpki":      sim((*experiment.Session).MPKI),
		"residency": sim((*experiment.Session).BTBResidency),
		"workloads": {Run: func(*experiment.Executor) ([]*report.Table, error) {
			t, err := workload.CharacterizationTable(400_000, scale.Seed)
			return []*report.Table{t}, err
		}},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(order, ", ")+", all)")
	scaleName := flag.String("scale", "full", "simulation scale: full, bench or micro")
	seed := flag.Uint64("seed", 1, "simulation seed")
	cacheGC := flag.Bool("cache-gc", false, "garbage-collect the run cache and exit (see -gc-age, -gc-max-bytes)")
	gcAge := flag.Duration("gc-age", runcache.DefaultGCMaxAge, "with -cache-gc: remove entries older than this (0 disables)")
	gcMaxBytes := flag.Int64("gc-max-bytes", runcache.DefaultGCMaxBytes, "with -cache-gc: evict oldest entries until the cache fits this many bytes (0 disables)")
	f := driver.AddFlags(flag.CommandLine)
	flag.Parse()

	os.Exit(driver.Main("bpsim", f, os.Stderr, func() error {
		if *cacheGC {
			if f.CacheDir() == "" {
				return errors.New("-cache-gc needs a cache directory (-cache)")
			}
			rep, err := runcache.GC(f.CacheDir(), experiment.SchemaVersion(),
				runcache.GCOptions{MaxAge: *gcAge, MaxBytes: *gcMaxBytes})
			if err != nil {
				return fmt.Errorf("cache-gc: %w", err)
			}
			fmt.Printf("cache-gc %s: %s\n", f.CacheDir(), rep)
			return nil
		}

		var scale experiment.Scale
		switch *scaleName {
		case "full":
			scale = experiment.FullScale()
		case "bench":
			scale = experiment.BenchScale()
		case "micro":
			scale = experiment.MicroScale()
		default:
			return driver.Usagef("unknown scale %q", *scaleName)
		}
		scale.Seed = *seed

		reg := experiments(scale)
		names := []string{*exp}
		if *exp == "all" {
			names = order
		}
		var exps []driver.Experiment
		for _, name := range names {
			e, ok := reg[name]
			if !ok {
				return driver.Usagef("unknown experiment %q", name)
			}
			e.Name = name
			exps = append(exps, e)
		}
		return driver.Run("bpsim", f, exps, os.Stdout, os.Stderr)
	}))
}
