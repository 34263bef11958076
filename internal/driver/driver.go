// Package driver holds the CLI plumbing the sweep drivers (bpsim,
// attacksim) share: strict shard parsing, execution-topology selection
// (the in-process pool or a -fleet pull-queue leader), and the final
// -json summary record. One implementation keeps the two binaries' flag
// semantics and wire behavior from drifting apart.
package driver

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xorbp/internal/experiment"
)

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

// Summarize assembles the summary record from the executor's counters
// and the connected topology's.
func Summarize(exec *experiment.Executor, conn *Conn,
	shardI, shardN int, wallStart time.Time) Summary {
	rec := Summary{
		Type:      "summary",
		Planned:   exec.Planned(),
		Simulated: exec.Runs(),
		Cached:    exec.Replays(),
		Skipped:   exec.Skipped(),
		WallMS:    float64(time.Since(wallStart)) / float64(time.Millisecond), //bpvet:allow wall-clock telemetry in the summary line; never part of a result or cache key
		Backend:   conn.Name,
		Workers:   exec.Workers(),
	}
	rec.WorkerCached = conn.WorkerCached()
	if shardN > 1 {
		rec.Shard = fmt.Sprintf("%d/%d", shardI, shardN)
	}
	return rec
}

// ParseShard strictly parses a -shard I/N flag ("" means unsharded:
// 0/1). Malformed input exits 2 — a typo like "1/2/4" must be
// rejected, not run as shard 1/2, because a mis-sharded process breaks
// the fleet's partition. haveSink reports whether results have
// somewhere to go (-cache, or -fleet, whose workers cache on their
// side); sharding without one would discard every result, so that
// exits 1.
func ParseShard(prog, s string, haveSink bool) (i, n int) {
	if s == "" {
		return 0, 1
	}
	is, ns, ok := strings.Cut(s, "/")
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if !ok || err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		fmt.Fprintf(os.Stderr, "%s: invalid -shard %q (want I/N with 0 <= I < N)\n", prog, s)
		StopProfiles()
		os.Exit(2)
	}
	if !haveSink {
		fmt.Fprintf(os.Stderr, "%s: -shard without -cache or -fleet would discard every result; "+
			"point the shards at a shared -cache (or run them as -fleet leaders: bpserve -pull workers cache on their side)\n", prog)
		StopProfiles()
		os.Exit(1)
	}
	return i, n
}

// ShardProgress reports one sharded experiment's resolved/skipped cell
// counts as deltas against the previous call — the executor's counters
// are session-cumulative, and attributing the whole session to each
// experiment in turn would misreport every line after the first.
type ShardProgress struct {
	prevDone, prevSkipped int
}

// Line formats the stderr notice for one completed experiment under a
// shard assignment and advances the baseline.
func (p *ShardProgress) Line(exec *experiment.Executor, shardI, shardN int, name string) string {
	done, skipped := exec.Done(), exec.Skipped()
	line := fmt.Sprintf("[shard %d/%d] %s: %d resolved, %d skipped (tables suppressed)",
		shardI, shardN, name, done-p.prevDone, skipped-p.prevSkipped)
	p.prevDone, p.prevSkipped = done, skipped
	return line
}
