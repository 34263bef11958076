// Package driver is the one invocation path of the sweep drivers,
// bpsim and attacksim. A main registers its own flags next to the
// shared ones (AddFlags), declares its experiments, and ends in
//
//	os.Exit(driver.Main(prog, f, os.Stderr, func() error {
//		return driver.Run(prog, f, exps, os.Stdout, os.Stderr)
//	}))
//
// Run owns the rest of the flow, once for both binaries: strict shard
// parsing, the topology (the in-process pool or a -fleet pull-queue
// leader), the executor and its run cache, the planner pass, rendering,
// the per-shard lines and the -json summary record. Nothing here exits
// the process: errors carry their status (an ExitError with Code 2 for
// a usage error, 1 for any other error), and Main returns it after
// flushing the profiles.
//
// The shared flags:
//
//   - -workers N bounds the in-process pool (<=0: one per CPU). Under
//     -fleet it is the number of submissions kept outstanding, 128
//     unless set explicitly.
//   - -cache DIR persists every resolved cell across invocations
//     (default ~/.cache/xorbp; "" disables). A second run of the same
//     experiments replays results from the store instead of simulating,
//     and a sweep killed part-way, run again on the same -cache,
//     simulates only the cells it had not finished.
//   - -fleet HOST:PORT makes the process a pull-queue leader: bpserve
//     -pull workers claim batches of specs under a -fleet-lease lease,
//     heartbeat while simulating and report results back. A worker that
//     dies mid-batch forfeits its lease and the rest of the fleet steals
//     the stalled cells. -token requires workers to present the same
//     bearer token (bpserve -token); -tls-cert/-tls-key serve the leader
//     endpoint over TLS.
//   - -shard I/N simulates only the cells whose key hashes to shard I of
//     N, skips the rest and suppresses tables: sharded runs populate a
//     shared -cache, and an unsharded run afterwards renders from it
//     without simulating. A shard that is not a -fleet leader fails if
//     its -cache does not open; an unsharded run only warns and goes
//     on without a cache.
//   - -progress prints one stderr line per completed simulation, counted
//     against the grid planned for the whole invocation, with a
//     throughput-based ETA over the cells that still need simulating.
//   - -json streams one {"type":"run",...} record per resolved cell
//     (label, key hash, cycles and MPKI or attack rate, duration, cache
//     hit), each experiment's tables as JSON, and a final
//     {"type":"summary",...} record (planned/simulated/cached/skipped
//     counts, wall time, backend).
//   - -cpuprofile/-memprofile write pprof profiles of the invocation.
//
// Tables are byte-identical for every worker count, topology and shard
// split: every result is a pure function of its spec.
package driver

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/report"
	"xorbp/internal/runcache"
	"xorbp/internal/runner"
)

// Experiment is one named step of an invocation. Run renders its tables
// against the executor it is given.
type Experiment struct {
	Name string
	// Sims marks an experiment that resolves cells through the
	// executor. Run calls it once more first against a dry planner, so
	// -progress and the ETA cover the whole invocation's grid from the
	// first line; experiments without Sims run only once.
	Sims bool
	Run  func(*experiment.Executor) ([]*report.Table, error)
}

// Flags are the flags every sweep driver shares. Their values are read
// by Main and Run.
type Flags struct {
	fs                     *flag.FlagSet
	workers                int
	progress, json         bool
	cache, shard, token    string
	fleet, tlsCert, tlsKey string
	lease                  time.Duration
	cpuProfile, memProfile string
}

// AddFlags registers the shared flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.IntVar(&f.workers, "workers", runner.DefaultWorkers(), "simulation worker pool size (<=0: one per CPU; with -fleet, the outstanding submissions, default 128)")
	fs.BoolVar(&f.progress, "progress", false, "emit a line per completed simulation to stderr, with session-wide ETA")
	fs.BoolVar(&f.json, "json", false, "emit per-run records, machine-readable JSON tables and a final summary record instead of text")
	fs.StringVar(&f.cache, "cache", runcache.DefaultDir(), "persistent run-cache directory (\"\" disables)")
	fs.StringVar(&f.shard, "shard", "", "static grid shard I/N (0-based): simulate only owned cells, skip the rest, suppress tables")
	fs.StringVar(&f.token, "token", "", "with -fleet: bearer token pull workers must present (bpserve -token)")
	fs.StringVar(&f.fleet, "fleet", "", "run as a pull-queue leader on this listen address; bpserve -pull workers claim the specs")
	fs.DurationVar(&f.lease, "fleet-lease", fleet.DefaultLease, "with -fleet: claim lease; a worker silent this long forfeits its batch")
	fs.StringVar(&f.tlsCert, "tls-cert", "", "with -fleet: serve the leader endpoint over TLS with this certificate")
	fs.StringVar(&f.tlsKey, "tls-key", "", "with -fleet: private key for -tls-cert")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the invocation to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
	return f
}

// CacheDir returns the -cache directory ("" when the run cache is off).
func (f *Flags) CacheDir() string { return f.cache }

// ExitError is an error that ends the process with Code instead of 1.
type ExitError struct {
	Code int
	Err  error
}

func (e *ExitError) Error() string { return e.Err.Error() }

// Usagef returns a usage error: Main exits 2 on it.
func Usagef(format string, args ...any) error {
	return &ExitError{Code: 2, Err: fmt.Errorf(format, args...)}
}

// Main runs body under the -cpuprofile/-memprofile captures and returns
// the process exit status: 0 on success; otherwise it prints "prog: msg"
// to stderr and returns the error's ExitError code, or 1.
func Main(prog string, f *Flags, stderr io.Writer, body func() error) int {
	status := func(err error) int {
		if err == nil {
			return 0
		}
		_, _ = fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		var ee *ExitError
		if errors.As(err, &ee) {
			return ee.Code
		}
		return 1
	}
	stop, err := startProfiles(f.cpuProfile, f.memProfile)
	if err != nil {
		return status(err)
	}
	code := status(body())
	// A profile that fails to flush is reported, but the sweep's own
	// status stands.
	if err := stop(); err != nil {
		_, _ = fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	}
	return code
}

// Run executes one sweep: it connects the topology, sets up the
// executor (shard, -progress, run cache, -json run records), plans every
// Sims experiment against a dry executor, then runs the experiments in
// order. Unsharded, each experiment's tables go to stdout as text
// followed by a "[name completed in …]" line, or as JSON objects;
// under -shard, tables are suppressed and stderr gets one line per
// experiment with that experiment's own resolved and skipped cells.
// The -json summary record and the -progress cache line close the run.
//
// Write errors on stdout and stderr are dropped: there is nowhere left
// to report them, and a closed stdout pipe ends the process by SIGPIPE.
func Run(prog string, f *Flags, exps []Experiment, stdout, stderr io.Writer) error {
	// A fleet sweep has a sink too: pull workers cache on their side.
	shardI, shardN, err := parseShard(f.shard, f.cache != "" || f.fleet != "")
	if err != nil {
		return err
	}
	c, err := connect(prog, f, stderr)
	if err != nil {
		return err
	}
	defer c.close()

	exec := experiment.NewExecutorWith(c.poolSize, c.backend)
	if shardN > 1 {
		exec.SetShard(shardI, shardN)
	}
	if f.progress {
		exec.SetProgress(stderr)
	}
	if f.cache != "" {
		st, err := runcache.Open(f.cache, experiment.SchemaVersion())
		switch {
		case err == nil:
			exec.SetStore(st)
		case shardN > 1 && f.fleet == "":
			// The cache is this shard's only sink (parseShard).
			return fmt.Errorf("-shard %s would discard every result: %w", f.shard, err)
		default:
			_, _ = fmt.Fprintf(stderr, "%s: disabling run cache: %v\n", prog, err)
		}
	}
	if f.json {
		exec.SetRecord(func(r experiment.RunRecord) {
			out, err := json.Marshal(struct {
				Type string `json:"type"`
				experiment.RunRecord
			}{"run", r})
			if err == nil {
				_, _ = fmt.Fprintln(stdout, string(out))
			}
		})
	}

	// Plan the whole invocation's grid against a dry executor (no
	// simulation) so -progress counts and the ETA cover every requested
	// experiment from the first line, not batch by batch.
	planner := experiment.NewPlanner()
	for _, e := range exps {
		if !e.Sims {
			continue
		}
		if _, err := e.Run(planner); err != nil {
			return fmt.Errorf("planning %s: %w", e.Name, err)
		}
	}
	exec.Plan(planner)

	wall := stopwatch()
	var prevDone, prevSkipped int
	for _, e := range exps {
		elapsed := stopwatch()
		tabs, err := e.Run(exec)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := exec.Err(); err != nil {
			return fmt.Errorf("backend failed: %w", err)
		}
		if shardN > 1 {
			// A sharded run populates the shared cache; its tables would
			// mix real cells with the zero results of skipped cells. The
			// executor's counters are session-cumulative, so each line
			// reports its experiment's deltas.
			done, skipped := exec.CacheSize(), exec.Skipped()
			_, _ = fmt.Fprintf(stderr, "[shard %d/%d] %s: %d resolved, %d skipped (tables suppressed)\n",
				shardI, shardN, e.Name, done-prevDone, skipped-prevSkipped)
			prevDone, prevSkipped = done, skipped
			continue
		}
		for _, tab := range tabs {
			if !f.json {
				_, _ = fmt.Fprintln(stdout, tab.Render())
				continue
			}
			out, err := json.MarshalIndent(map[string]any{"experiment": e.Name, "table": tab}, "", "  ")
			if err != nil {
				return err
			}
			_, _ = fmt.Fprintln(stdout, string(out))
		}
		if !f.json {
			_, _ = fmt.Fprintf(stdout, "[%s completed in %v]\n\n", e.Name, elapsed().Round(time.Millisecond))
		}
	}
	if f.json {
		if out, err := json.Marshal(summarize(exec, c, wall())); err == nil {
			_, _ = fmt.Fprintln(stdout, string(out))
		}
	}
	if st := exec.Store(); st != nil && f.progress {
		cs := st.Stats()
		_, _ = fmt.Fprintf(stderr, "[cache %s: %d replayed, %d simulated, %d entries]\n",
			st.Dir(), cs.Hits, exec.Runs(), st.Len())
	}
	return nil
}

// stopwatch starts a wall-clock timer and returns its reading function.
func stopwatch() func() time.Duration {
	start := time.Now() //bpvet:allow wall-clock telemetry for the timing line and the summary's wall_ms; never part of a result or cache key
	return func() time.Duration {
		return time.Since(start) //bpvet:allow wall-clock telemetry for the timing line and the summary's wall_ms; never part of a result or cache key
	}
}

// Summary is the final -json record: the invocation's totals, so
// scripted sweeps read one line instead of tallying run records.
type Summary struct {
	Type      string `json:"type"` // "summary"
	Planned   int    `json:"planned"`
	Simulated uint64 `json:"simulated"`
	Cached    int    `json:"cached"`
	Skipped   int    `json:"skipped"`
	// WorkerCached counts dispatched runs the pull fleet answered
	// from its own stores (a subset of Simulated, which tallies
	// dispatches — the driver cannot see inside the backend).
	WorkerCached uint64  `json:"worker_cached,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	Backend      string  `json:"backend"` // "local" or "pull"
	Workers      int     `json:"workers"`
	Shard        string  `json:"shard,omitempty"`
}

// summarize assembles the summary record from the executor's counters
// and the connected topology's.
func summarize(exec *experiment.Executor, c *conn, wall time.Duration) Summary {
	rec := Summary{
		Type:      "summary",
		Planned:   exec.Planned(),
		Simulated: exec.Runs(),
		Cached:    exec.Replays(),
		Skipped:   exec.Skipped(),
		WallMS:    float64(wall) / float64(time.Millisecond),
		Backend:   c.name,
		Workers:   exec.Workers(),
	}
	if c.fb != nil {
		rec.WorkerCached = c.fb.Replays()
	}
	if i, n := exec.Shard(); n > 1 {
		rec.Shard = fmt.Sprintf("%d/%d", i, n)
	}
	return rec
}

// parseShard strictly parses a -shard I/N flag ("" means unsharded:
// 0/1). Malformed input is a usage error — a typo like "1/2/4" must be
// rejected, not run as shard 1/2, because a mis-sharded process breaks
// the fleet's partition. haveSink reports whether results have
// somewhere to go (-cache, or -fleet, whose workers cache on their
// side); sharding without one would discard every result.
func parseShard(s string, haveSink bool) (i, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if !ok || err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, Usagef("invalid -shard %q (want I/N with 0 <= I < N)", s)
	}
	if !haveSink {
		return 0, 0, errors.New("-shard without -cache or -fleet would discard every result; " +
			"point the shards at a shared -cache (or run them as -fleet leaders: bpserve -pull workers cache on their side)")
	}
	return i, n, nil
}
