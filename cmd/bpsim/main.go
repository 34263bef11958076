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
// Simulations fan out across -workers goroutines (default: one per CPU);
// results are deterministic for any worker count.
//
// -cache DIR persists every resolved simulation across invocations
// (default ~/.cache/xorbp; -cache "" disables): a second run of the same
// experiments replays results from the store instead of simulating. The
// same holds for a sweep that was killed part-way: run it again on the
// same -cache and only the cells it had not finished simulate.
//
// -fleet HOST:PORT distributes the sweep: this process becomes a
// pull-queue leader, and bpserve workers started with -pull HOST:PORT
// claim batches of specs under a -fleet-lease lease, heartbeat while
// simulating, and report results back. A worker that dies mid-batch
// forfeits its lease and the rest of the fleet steals the stalled
// cells. -token requires workers to present the same bearer token;
// -tls-cert/-tls-key serve the leader endpoint over TLS. Unless
// -workers is set explicitly, the leader keeps 128 submissions
// outstanding. Tables stay byte-identical to a serial run under every
// topology: results are pure functions of their specs regardless of
// where they execute.
//
// -shard I/N statically partitions the grid: this process simulates only
// the cells whose key hashes to shard I of N, skips the rest, and
// suppresses table output (a sharded run populates the shared cache; an
// unsharded run afterwards renders from it without simulating).
//
// -progress emits one line per completed simulation to stderr, counted
// against the full grid planned for the invocation (all requested
// experiments, not the current batch) with a throughput-based ETA over
// the cells that still need simulating.
//
// -json streams one record per resolved simulation — spec label, key
// hash, cycles, MPKI, duration and cache hit/miss — as single-line
// {"type":"run",...} objects, followed by each experiment's table and a
// final {"type":"summary",...} record (planned/simulated/cached/skipped
// counts, wall time, backend), so scripted sweeps don't have to tally
// run records themselves.
//
// -cache-gc garbage-collects the cache directory instead of running
// experiments: superseded schema subdirectories are removed, then
// entries older than -gc-age, then the oldest survivors until the
// directory fits -gc-max-bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xorbp/internal/driver"
	"xorbp/internal/experiment"
	"xorbp/internal/hwcost"
	"xorbp/internal/runcache"
	"xorbp/internal/runner"
	"xorbp/internal/trace"
	"xorbp/internal/workload"
)

// order is the canonical experiment list: the -exp flag accepts exactly
// these names (plus "all", which runs them in this order). The package
// doc and the flag help are derived from / reconciled with this slice.
var order = []string{"table2", "table3", "workloads", "fig1", "fig2", "fig3",
	"fig7", "fig8", "fig9", "fig10", "rekey", "table4", "table5", "mpki", "residency"}

// expRunner couples an experiment with whether it resolves simulations
// through the session's executor (and therefore participates in grid
// planning and the run cache).
type expRunner struct {
	run  func(s *experiment.Session, seed uint64) (*experiment.Table, error)
	sims bool
}

// runners maps every name in order to its runner.
func runners() map[string]expRunner {
	sim := func(f func(*experiment.Session) *experiment.Table) expRunner {
		return expRunner{
			run:  func(s *experiment.Session, _ uint64) (*experiment.Table, error) { return f(s), nil },
			sims: true,
		}
	}
	static := func(f func() *experiment.Table) expRunner {
		return expRunner{
			run: func(*experiment.Session, uint64) (*experiment.Table, error) { return f(), nil },
		}
	}
	return map[string]expRunner{
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
		"workloads": {run: func(_ *experiment.Session, seed uint64) (*experiment.Table, error) {
			return workload.CharacterizationTable(400_000, seed)
		}},
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bpsim: "+format+"\n", args...)
	driver.StopProfiles() // os.Exit skips the deferred stop
	os.Exit(1)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(order, ", ")+", all)")
	scaleName := flag.String("scale", "full", "simulation scale: full, bench or micro")
	seed := flag.Uint64("seed", 1, "simulation seed")
	asJSON := flag.Bool("json", false, "emit per-run records, machine-readable JSON tables and a final summary record instead of text")
	workers := flag.Int("workers", runner.DefaultWorkers(), "simulation worker pool size (<=0: one per CPU; with -fleet, the outstanding submissions, default 128)")
	progress := flag.Bool("progress", false, "emit a line per completed simulation to stderr, with session-wide ETA")
	cacheDir := flag.String("cache", runcache.DefaultDir(), "persistent run-cache directory (\"\" disables)")
	shard := flag.String("shard", "", "static grid shard I/N (0-based): simulate only owned cells, skip the rest, suppress tables")
	token := flag.String("token", "", "with -fleet: bearer token pull workers must present (bpserve -token)")
	cacheGC := flag.Bool("cache-gc", false, "garbage-collect the run cache and exit (see -gc-age, -gc-max-bytes)")
	gcAge := flag.Duration("gc-age", 30*24*time.Hour, "with -cache-gc: remove entries older than this (0 disables)")
	gcMaxBytes := flag.Int64("gc-max-bytes", 4<<30, "with -cache-gc: evict oldest entries until the cache fits this many bytes (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the invocation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
	fleetFlags := driver.AddFleetFlags()
	flag.Parse()

	stopProfiles := driver.StartProfiles("bpsim", *cpuProfile, *memProfile)
	defer stopProfiles()

	if *cacheGC {
		if *cacheDir == "" {
			fatalf("-cache-gc needs a cache directory (-cache)")
		}
		// Both live schemas sharing the directory survive the sweep: the
		// experiment run cache and bptrace's recording cache.
		rep, err := runcache.GC(*cacheDir,
			[]string{experiment.SchemaVersion(), trace.CacheSchema()},
			runcache.GCOptions{MaxAge: *gcAge, MaxBytes: *gcMaxBytes})
		if err != nil {
			fatalf("cache-gc: %v", err)
		}
		fmt.Printf("cache-gc %s: %s\n", *cacheDir, rep)
		return
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
		fmt.Fprintf(os.Stderr, "bpsim: unknown scale %q\n", *scaleName)
		driver.StopProfiles()
		os.Exit(2)
	}
	scale.Seed = *seed

	// A fleet sweep has a sink too: pull workers cache on their side.
	shardI, shardN := driver.ParseShard("bpsim", *shard,
		*cacheDir != "" || *fleetFlags.Fleet != "")

	reg := runners()
	names := []string{*exp}
	if *exp == "all" {
		names = order
	}
	for _, name := range names {
		if _, ok := reg[name]; !ok {
			fmt.Fprintf(os.Stderr, "bpsim: unknown experiment %q\n", name)
			driver.StopProfiles()
			os.Exit(2)
		}
	}

	// Pick the topology: the in-process pool or a pull-queue leader.
	workersSet := false
	flag.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	conn := driver.Connect(driver.ConnectOptions{
		Prog: "bpsim", Token: *token,
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
			fmt.Fprintf(os.Stderr, "bpsim: disabling run cache: %v\n", err)
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
	s := experiment.NewSessionWith(scale, exec)

	// Plan the whole invocation's grid against a dry executor (no
	// simulation) so -progress counts and the ETA cover every requested
	// experiment from the first line, not batch by batch.
	planner := experiment.NewPlanner()
	ps := experiment.NewSessionWith(scale, planner)
	for _, name := range names {
		if reg[name].sims {
			if _, err := reg[name].run(ps, *seed); err != nil {
				fatalf("planning %s: %v", name, err)
			}
		}
	}
	exec.Plan(planner)

	wallStart := time.Now()
	var shardProg driver.ShardProgress
	for _, name := range names {
		start := time.Now()
		tab, err := reg[name].run(s, *seed)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if err := exec.Err(); err != nil {
			fatalf("backend failed: %v", err)
		}
		if shardN > 1 {
			// A sharded run populates the shared cache; its tables would
			// mix real cells with the zero results of skipped cells.
			fmt.Fprintln(os.Stderr, shardProg.Line(exec, shardI, shardN, name))
			continue
		}
		if *asJSON {
			out, err := json.MarshalIndent(map[string]any{"experiment": name, "table": tab}, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				driver.StopProfiles()
				os.Exit(1)
			}
			fmt.Println(string(out))
			continue
		}
		fmt.Println(tab.Render())
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
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
