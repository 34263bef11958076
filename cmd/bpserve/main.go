// Command bpserve is the experiment fleet worker: it claims batches of
// simulation specs from a bpsim/attacksim -fleet leader, simulates
// them, and reports the results back over the pull-queue protocol
// (internal/fleet).
//
// Usage:
//
//	bpserve -pull HOST:PORT [-pull-batch N] [-id NAME] [-workers N]
//	        [-cache DIR] [-token T] [-tls-ca FILE] [-drain-timeout D]
//	        [-gc-interval D] [-gc-age D] [-gc-max-bytes N] [-slow D]
//
// The worker claims up to -pull-batch specs from the leader under a
// lease, heartbeats while simulating, reports each result as it lands,
// and goes back for more. -workers bounds concurrent simulations
// (default: one per CPU). -id names the worker for lease bookkeeping
// (default host:pid). A worker that dies mid-batch forfeits its lease
// and the fleet steals the stalled specs. Specs may be performance runs
// or attack jobs (attacksim -fleet); the worker executes both kinds.
//
// Every result is written through to -cache (default ~/.cache/xorbp),
// so workers sharing a directory — with each other or with bpsim —
// never repeat a spec. A spec already in the cache is answered without
// simulating.
//
// -token presents "Authorization: Bearer T" on every leader request
// (the leader's -token); a leader that refuses it stops the worker with
// an error. -tls-ca pins the leader's CA and switches claims to HTTPS.
//
// -gc-interval makes the worker garbage-collect its cache directory
// periodically (0 disables), bounding its own disk use instead of
// waiting for a manual `bpsim -cache-gc`: superseded schema directories
// are removed, then entries older than -gc-age, then the oldest
// survivors until the directory fits -gc-max-bytes. The first pass runs
// at start-up.
//
// -slow injects a fixed delay before every simulation — the
// slow-worker model CI's fleet-smoke topology uses to skew a fleet on
// one machine; results are unaffected.
//
// On SIGINT/SIGTERM the worker drains gracefully: it stops claiming,
// finishes the specs it has started, and nacks the rest of its lease
// back to the leader immediately instead of letting it time out,
// bounded by -drain-timeout. A second signal exits at once.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/runcache"
	"xorbp/internal/runner"
	"xorbp/internal/wire"
)

// runPull is the worker loop: claim batches from the leader until
// signalled. On SIGINT/SIGTERM it stops claiming, finishes the specs it
// has started, nacks the rest of its lease back, and exits; a second
// signal exits immediately.
func runPull(leader, id, token, tlsCA string, backend experiment.Backend,
	st *runcache.Store, batch, workers int, drainTimeout time.Duration) {
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := fleet.NewPullWorker(leader, id, backend, st, batch, workers)
	w.SetToken(token)
	if tlsCA != "" {
		pool, err := wire.LoadCertPool(tlsCA)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpserve: %v\n", err)
			os.Exit(1)
		}
		w.SetTLS(pool)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	cache := "disabled"
	if st != nil {
		cache = st.Dir()
	}
	fmt.Fprintf(os.Stderr, "bpserve: pulling from %s as %q (%d slots, cache %s)\n",
		leader, id, workers, cache)

	finish := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpserve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bpserve: drained (%d simulated, %d replayed, %d nacked)\n",
			w.Runs(), w.Replays(), w.Nacked())
	}

	select {
	case err := <-done:
		finish(err)
	case <-sig:
		fmt.Fprintf(os.Stderr, "bpserve: draining (finishing started specs, nacking the rest)\n")
		w.Drain()
		select {
		case err := <-done:
			finish(err)
		case <-time.After(drainTimeout):
			fmt.Fprintf(os.Stderr, "bpserve: drain timed out after %v\n", drainTimeout)
			os.Exit(1)
		case <-sig:
			fmt.Fprintln(os.Stderr, "bpserve: second signal, exiting now")
			os.Exit(1)
		}
	}
}

func main() {
	workers := flag.Int("workers", runner.DefaultWorkers(), "concurrent simulation limit (<=0: one per CPU)")
	cacheDir := flag.String("cache", runcache.DefaultDir(), "shared run-cache directory (\"\" disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "max wait for started simulations on shutdown")
	token := flag.String("token", "", "shared bearer token to present to the leader (\"\" = none)")
	gcInterval := flag.Duration("gc-interval", 6*time.Hour, "period between automatic cache GC passes (0 disables)")
	gcAge := flag.Duration("gc-age", runcache.DefaultGCMaxAge, "GC: remove entries older than this (0 disables the age bound)")
	gcMaxBytes := flag.Int64("gc-max-bytes", runcache.DefaultGCMaxBytes, "GC: evict oldest entries until the cache fits this many bytes (0 disables)")
	pull := flag.String("pull", "", "fleet leader address (bpsim/attacksim -fleet) to claim work from (required)")
	pullBatch := flag.Int("pull-batch", 0, "max specs claimed per lease (<=0: 2x workers)")
	workerID := flag.String("id", "", "stable worker identity for lease bookkeeping (default host:pid)")
	tlsCA := flag.String("tls-ca", "", "PEM CA bundle to pin for the leader; claims switch to HTTPS")
	slow := flag.Duration("slow", 0, "inject a fixed delay before every simulation (slow-worker model for skewed test fleets; results unaffected)")
	flag.Parse()

	if *pull == "" {
		fmt.Fprintln(os.Stderr, "usage: bpserve -pull HOST:PORT [flags]  (run bpserve -h for the flag list)")
		os.Exit(2)
	}
	if *workers <= 0 {
		*workers = runner.DefaultWorkers()
	}

	var st *runcache.Store
	if *cacheDir != "" {
		var err error
		st, err = runcache.Open(*cacheDir, wire.SchemaVersion())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpserve: disabling run cache: %v\n", err)
			st = nil
		}
	}
	if st != nil {
		stopGC := runcache.StartGC(*cacheDir, wire.SchemaVersion(),
			*gcInterval, runcache.GCOptions{MaxAge: *gcAge, MaxBytes: *gcMaxBytes}, os.Stderr)
		defer stopGC()
	}

	var backend experiment.Backend = experiment.LocalBackend{}
	if *slow > 0 {
		backend = fleet.Throttle{Inner: backend, Delay: *slow}
	}

	runPull(*pull, *workerID, *token, *tlsCA, backend, st, *pullBatch, *workers, *drainTimeout)
}
