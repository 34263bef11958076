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
// Every attack cell is an engine job, so the flags shared with bpsim
// mean the same things: -cache persists resolved cells across
// invocations (a warm re-run simulates nothing, and a killed sweep run
// again on the same -cache simulates only the rest), -workers bounds the
// in-process pool, -fleet runs this process as a pull-queue leader
// that bpserve -pull workers claim batches from (-token authenticating
// them against bpserve -token, -tls-cert/-tls-key serving that
// endpoint over TLS), -shard I/N statically partitions the grid across
// cooperating processes (tables suppressed; an unsharded run
// afterwards renders from the shared cache), -progress reports
// done/planned with a session-wide ETA over the pre-planned grid, and
// -json streams per-cell records, JSON tables and a final summary
// record. Tables are byte-identical for every worker count, backend and
// shard split.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"xorbp/internal/attack"
	"xorbp/internal/driver"
	"xorbp/internal/experiment"
	"xorbp/internal/report"
	"xorbp/internal/runcache"
	"xorbp/internal/runner"
	"xorbp/internal/secsweep"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "attacksim: "+format+"\n", args...)
	driver.StopProfiles() // os.Exit skips the deferred stop
	os.Exit(1)
}

func main() {
	poc := flag.Bool("poc", false, "run the PoC accuracy experiment")
	table1 := flag.Bool("table1", false, "run the Table 1 matrix")
	sweep := flag.Bool("sweep", false, "run the security-sweep grid (matrices, re-key curve, predictor cross, verdicts)")
	quick := flag.Bool("quick", false, "reduced iteration counts and grid dimensions")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("workers", runner.DefaultWorkers(), "attack-cell worker pool size (<=0: one per CPU; with -fleet, the outstanding submissions, default 128)")
	progress := flag.Bool("progress", false, "emit a line per resolved cell to stderr, with session-wide ETA")
	asJSON := flag.Bool("json", false, "emit per-cell records, machine-readable JSON tables and a final summary record instead of text")
	cacheDir := flag.String("cache", runcache.DefaultDir(), "persistent run-cache directory (\"\" disables)")
	shard := flag.String("shard", "", "static grid shard I/N (0-based): simulate only owned cells, skip the rest, suppress tables")
	token := flag.String("token", "", "with -fleet: bearer token pull workers must present (bpserve -token)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the invocation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
	fleetFlags := driver.AddFleetFlags()
	flag.Parse()

	stopProfiles := driver.StartProfiles("attacksim", *cpuProfile, *memProfile)
	defer stopProfiles()

	cfg := attack.DefaultConfig()
	swCfg := secsweep.DefaultConfig()
	if *quick {
		cfg = attack.QuickConfig()
		swCfg = secsweep.QuickConfig()
	}
	cfg.Seed = *seed
	swCfg.Attack = cfg

	// A fleet sweep has a sink too: pull workers cache on their side.
	shardI, shardN := driver.ParseShard("attacksim", *shard,
		*cacheDir != "" || *fleetFlags.Fleet != "")

	// Experiment set: the two PoC tables by default, the grid on -sweep.
	type exp struct {
		name string
		run  func(*experiment.Executor) []*report.Table
	}
	var exps []exp
	runAll := !*poc && !*table1 && !*sweep
	if *poc || runAll {
		exps = append(exps, exp{"poc", func(e *experiment.Executor) []*report.Table {
			return []*report.Table{secsweep.TableVia(e, func(m attack.Measurer) *report.Table {
				return attack.PoCAccuracyWith(cfg, m)
			})}
		}})
	}
	if *table1 || runAll {
		exps = append(exps, exp{"table1", func(e *experiment.Executor) []*report.Table {
			return []*report.Table{secsweep.TableVia(e, func(m attack.Measurer) *report.Table {
				return attack.Table1With(cfg, m)
			})}
		}})
	}
	if *sweep {
		exps = append(exps, exp{"sweep", func(e *experiment.Executor) []*report.Table {
			return secsweep.New(swCfg, e).Tables()
		}})
	}

	// Pick the topology: the in-process pool or a pull-queue leader.
	workersSet := false
	flag.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	conn := driver.Connect(driver.ConnectOptions{
		Prog: "attacksim", Token: *token,
		Workers: *workers, WorkersSet: workersSet, Fleet: fleetFlags,
	})
	defer conn.Close()

	exec := experiment.NewExecutorWith(conn.PoolSize, conn.Backend)
	if shardN > 1 {
		exec.SetShard(shardI, shardN)
	}
	if *progress {
		exec.SetProgress(os.Stderr)
	}
	if *cacheDir != "" {
		st, err := runcache.Open(*cacheDir, experiment.SchemaVersion())
		if err != nil {
			fmt.Fprintf(os.Stderr, "attacksim: disabling run cache: %v\n", err)
		} else {
			exec.SetStore(st)
		}
	}
	if *asJSON {
		exec.SetRecord(func(r experiment.RunRecord) {
			out, err := json.Marshal(struct {
				Type string `json:"type"`
				experiment.RunRecord
			}{"run", r})
			if err == nil {
				fmt.Println(string(out))
			}
		})
	}

	// Plan the whole invocation's grid against a dry executor so
	// -progress counts and the ETA cover every requested experiment
	// from the first line.
	planner := experiment.NewPlanner()
	for _, e := range exps {
		e.run(planner)
	}
	exec.Plan(planner)

	wallStart := time.Now()
	var shardProg driver.ShardProgress
	for _, e := range exps {
		start := time.Now()
		tabs := e.run(exec)
		if err := exec.Err(); err != nil {
			fatalf("backend failed: %v", err)
		}
		if shardN > 1 {
			// A sharded run populates the shared cache; its tables would
			// mix real cells with the zero results of skipped cells.
			fmt.Fprintln(os.Stderr, shardProg.Line(exec, shardI, shardN, e.name))
			continue
		}
		for _, tab := range tabs {
			if *asJSON {
				out, err := json.MarshalIndent(map[string]any{"experiment": e.name, "table": tab}, "", "  ")
				if err != nil {
					fatalf("%v", err)
				}
				fmt.Println(string(out))
				continue
			}
			fmt.Println(tab.Render())
		}
		if !*asJSON {
			fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *asJSON {
		rec := driver.Summarize(exec, conn, shardI, shardN, wallStart)
		if out, err := json.Marshal(rec); err == nil {
			fmt.Println(string(out))
		}
	}
	if st := exec.Store(); st != nil && *progress {
		cs := st.Stats()
		fmt.Fprintf(os.Stderr, "[cache %s: %d replayed, %d simulated, %d entries]\n",
			st.Dir(), cs.Hits, exec.Runs(), st.Len())
	}
}
