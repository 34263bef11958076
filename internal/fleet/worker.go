package fleet

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/rng"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

// WorkerFaults is the chaos layer's worker-lifecycle hook (implemented
// by chaos.FleetFaults; nil in production). Each method is one
// injection decision point.
type WorkerFaults interface {
	// CrashBatch, answered true, kills the worker mid-batch: remaining
	// specs are neither completed nor nacked and the heartbeat stops,
	// so the lease lapses and the fleet steals them.
	CrashBatch() bool
	// DropHeartbeat suppresses one heartbeat post.
	DropHeartbeat() bool
	// DuplicateComplete reports one completion a second time.
	DuplicateComplete() bool
}

// claimTimeout bounds one leader round-trip (claim, health probe): a
// hung leader connection must surface as a retryable error, not wedge
// the poll loop — a draining worker checks its flag between polls, so
// an unbounded poll would also wedge drain.
const claimTimeout = 10 * time.Second

// PullWorker is the bpserve `-pull` loop: claim a batch from the
// leader, simulate it on the local backend (replaying from the shared
// store where possible), heartbeat while working, report each result
// as it lands, and go back for more. Pacing is implicit — a fast
// worker simply claims more often — and a worker that dies mid-batch
// loses its lease, so the fleet steals the stalled specs.
type PullWorker struct {
	leader string // leader host:port
	scheme string // "http", or "https" after SetTLS
	id     string // stable worker identity for lease bookkeeping
	token  string
	hc     *http.Client

	backend experiment.Backend
	store   *runcache.Store // may be nil (no replay / write-through)
	batch   int             // max specs claimed per lease
	slots   int             // concurrent simulations within a batch

	// sleep paces the error-retry and heartbeat loops; injectable so the
	// package stays free of wall-clock reads and tests run fast.
	sleep func(ctx context.Context, d time.Duration) error

	// jitter drives the error-retry jitter: a per-worker seeded stream
	// (from the worker id), so retry pacing is deterministic per worker
	// yet decorrelated across the fleet. Only the claim-loop goroutine
	// touches it.
	jitter *rng.SplitMix64

	// faults, when set, injects worker-lifecycle failures (chaos
	// testing only).
	faults WorkerFaults

	// draining stops the claim loop: started specs finish, unstarted
	// ones are nacked back to the leader immediately.
	draining atomic.Bool

	claims  atomic.Uint64 // non-empty batches claimed
	runs    atomic.Uint64 // specs simulated
	replays atomic.Uint64 // specs answered from the store
	nacked  atomic.Uint64 // specs handed back while draining
	crashes atomic.Uint64 // injected mid-batch crashes (chaos)
}

// NewPullWorker creates a worker that polls leader (host:port) under
// the given stable identity, simulating up to slots specs concurrently
// and claiming up to batch specs per lease (<= 0 selects slots*2, so a
// claim keeps every slot busy with one spec of lookahead each).
func NewPullWorker(leader, id string, backend experiment.Backend, store *runcache.Store, batch, slots int) *PullWorker {
	if slots < 1 {
		slots = 1
	}
	if batch < 1 {
		batch = slots * 2
	}
	return &PullWorker{
		leader:  leader,
		scheme:  "http",
		id:      id,
		hc:      &http.Client{},
		backend: backend,
		store:   store,
		batch:   batch,
		slots:   slots,
		sleep:   sleepWall,
		jitter:  rng.NewSplitMix64(rng.Mix64(fnv64a(id))),
	}
}

// fnv64a hashes s (FNV-1a) to seed the per-worker jitter stream.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sleepWall is the default sleeper: a timer racing the context.
func sleepWall(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SetToken attaches a shared bearer token to every leader request (the
// counterpart of the leader's -token).
func (w *PullWorker) SetToken(token string) { w.token = token }

// SetSleep replaces the retry/heartbeat sleeper (tests inject a fake).
func (w *PullWorker) SetSleep(sleep func(ctx context.Context, d time.Duration) error) {
	if sleep != nil {
		w.sleep = sleep
	}
}

// SetTLS switches the worker to HTTPS with the fleet CA pinned — only
// a leader presenting a chain to ca is trusted with this worker's
// labor and results.
func (w *PullWorker) SetTLS(ca *x509.CertPool) {
	w.scheme = "https"
	w.hc.Transport = &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca}}
}

// SetFaults arms the chaos layer's worker-lifecycle faults (tests and
// chaosbench only; nil in production).
func (w *PullWorker) SetFaults(f WorkerFaults) { w.faults = f }

// Drain stops the claim loop: the worker finishes the specs it has
// already started, nacks the rest of its lease back to the leader, and
// Run returns. Safe to call from a signal handler.
func (w *PullWorker) Drain() { w.draining.Store(true) }

// Runs returns how many specs this worker simulated.
func (w *PullWorker) Runs() uint64 { return w.runs.Load() }

// Replays returns how many claimed specs the worker answered from its
// store without simulating.
func (w *PullWorker) Replays() uint64 { return w.replays.Load() }

// Nacked returns how many specs the worker handed back while draining.
func (w *PullWorker) Nacked() uint64 { return w.nacked.Load() }

// Claims returns how many non-empty batches the worker has claimed.
func (w *PullWorker) Claims() uint64 { return w.claims.Load() }

// Crashes returns how many injected mid-batch crashes this worker has
// suffered (always 0 outside chaos runs).
func (w *PullWorker) Crashes() uint64 { return w.crashes.Load() }

// Run claims from the leader until ctx cancels or Drain is called. The
// leader holds empty claims open, so an empty answer is re-claimed at
// once. Transient leader errors (leader not up yet, restarting) are
// retried behind a jittered pause; only an unrecoverable protocol
// disagreement (schema mismatch, bad token) returns an error.
func (w *PullWorker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		if w.draining.Load() {
			return nil
		}
		resp, err := w.claim(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if isFatal(err) {
				return err
			}
			if err := w.sleep(ctx, w.pollWait()); err != nil {
				return nil
			}
			continue
		}
		if resp.Lease == 0 {
			continue
		}
		if resp.Schema != wire.SchemaVersion() {
			// Never compute under a schema disagreement: hand the batch
			// back and stop — rebuilding one side is the only fix.
			_ = w.nack(ctx, resp.Lease, nil)
			return fmt.Errorf("fleet: leader runs schema %q, this worker %q — rebuild one side",
				resp.Schema, wire.SchemaVersion())
		}
		w.claims.Add(1)
		w.processBatch(ctx, resp)
	}
}

// pollWait is the pause before retrying a failed claim: uniform in
// [idleWait/2, 3*idleWait/2) from the worker's seeded stream, so workers
// that lost the leader together spread their retries instead of
// thundering it when it returns, reproducibly per worker id.
func (w *PullWorker) pollWait() time.Duration {
	return idleWait/2 + time.Duration(w.jitter.Next()%uint64(idleWait))
}

// fatalError marks a protocol disagreement no retry can fix.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

func isFatal(err error) bool {
	_, ok := err.(fatalError)
	return ok
}

// processBatch simulates one claimed batch: slots concurrent workers
// drain the spec list, a heartbeat loop keeps the lease alive, and a
// drain request stops the intake so unstarted specs are nacked back.
func (w *PullWorker) processBatch(ctx context.Context, claim ClaimResponse) {
	leaseDur := time.Duration(claim.LeaseMS) * time.Millisecond
	if leaseDur <= 0 {
		leaseDur = DefaultLease
	}

	// crashed simulates a worker dying mid-batch (chaos only): the
	// intake stops taking specs, nothing is completed or nacked, and
	// the heartbeat goes silent so the lease lapses and the fleet
	// steals the remainder.
	var crashed atomic.Bool

	// Heartbeat at a third of the lease: two beats can be lost to a
	// hiccup before the lease lapses.
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		for {
			if err := w.sleep(hbCtx, leaseDur/3); err != nil {
				return
			}
			if crashed.Load() {
				return
			}
			if w.faults != nil && w.faults.DropHeartbeat() {
				continue
			}
			if !w.heartbeat(hbCtx, claim.Lease) {
				return
			}
		}
	}()

	// Intake: each slot takes the next spec; a draining worker stops
	// taking, so whatever is left in the channel gets nacked.
	in := make(chan wire.Spec, len(claim.Specs))
	for _, spec := range claim.Specs {
		in <- spec
	}
	close(in)

	var mu sync.Mutex
	var leftover []string

	var wg sync.WaitGroup
	for range w.slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range in {
				if crashed.Load() {
					// A crashed worker reports nothing — not even a nack.
					// Its specs sit out the lease and get stolen.
					continue
				}
				if w.faults != nil && w.faults.CrashBatch() {
					crashed.Store(true)
					w.crashes.Add(1)
					continue
				}
				if w.draining.Load() || ctx.Err() != nil {
					mu.Lock()
					leftover = append(leftover, spec.Key())
					mu.Unlock()
					continue
				}
				w.runOne(ctx, claim.Lease, spec)
			}
		}()
	}
	wg.Wait()
	stopHB()
	hbDone.Wait()

	if len(leftover) > 0 && !crashed.Load() {
		sort.Strings(leftover)
		// Nack with a background-ish context: ctx may already be
		// cancelled, but handing the batch back beats waiting out the
		// lease. Bound it so a dead leader can't hang shutdown.
		nctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := w.nack(nctx, claim.Lease, leftover); err == nil {
			w.nacked.Add(uint64(len(leftover)))
		}
	}
}

// runOne resolves one spec — store replay or local simulation — and
// reports the outcome to the leader.
func (w *PullWorker) runOne(ctx context.Context, leaseID uint64, spec wire.Spec) {
	key := spec.Key()
	report := func(res wire.Result, cached bool) {
		_ = w.complete(ctx, leaseID, key, res, cached)
		if w.faults != nil && w.faults.DuplicateComplete() {
			// Chaos: report the same completion twice — the queue must
			// absorb the echo as a duplicate, not double-count or error.
			_ = w.complete(ctx, leaseID, key, res, cached)
		}
	}
	if w.store != nil {
		if raw, ok := w.store.Get(key); ok {
			if res, err := wire.DecodeResult(raw); err == nil {
				w.replays.Add(1)
				report(res, true)
				return
			}
		}
	}
	res, err := w.backend.Run(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled mid-run, not a verdict on the spec: say nothing
			// and let the lease expire (or the nack path return it).
			return
		}
		_ = w.fail(ctx, leaseID, key, err.Error())
		return
	}
	w.runs.Add(1)
	if w.store != nil {
		_ = w.store.Put(key, res.Encode())
	}
	report(res, false)
}

// post sends one queue-protocol request and decodes the reply into out.
func (w *PullWorker) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.scheme+"://"+w.leader+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.token != "" {
		req.Header.Set("Authorization", "Bearer "+w.token)
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Read the rest of the reply, bounded, so net/http can reuse
		// the connection for the next request instead of dialing anew.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusUnauthorized {
		return fatalError{fmt.Errorf("fleet: leader refused token: %s", readBody(resp.Body))}
	}
	if resp.StatusCode == http.StatusConflict {
		// The leader refused this worker outright (schema mismatch at
		// registration): no retry can fix a build disagreement.
		return fatalError{fmt.Errorf("fleet: %s", readBody(resp.Body))}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: leader %s: %s: %s", path, resp.Status, readBody(resp.Body))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func readBody(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4<<10))
	if err != nil || len(raw) == 0 {
		return "(no body)"
	}
	var e wire.Error
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(raw))
}

func (w *PullWorker) claim(ctx context.Context) (ClaimResponse, error) {
	// A per-claim deadline, well above the leader's hold, keeps a hung
	// leader connection from wedging the claim loop (and with it, Drain,
	// which is checked between claims).
	cctx, cancel := context.WithTimeout(ctx, claimTimeout)
	defer cancel()
	var resp ClaimResponse
	err := w.post(cctx, "/queue/claim",
		ClaimRequest{Worker: w.id, Max: w.batch, Schema: wire.SchemaVersion()}, &resp)
	return resp, err
}

func (w *PullWorker) heartbeat(ctx context.Context, leaseID uint64) bool {
	var resp HeartbeatResponse
	if err := w.post(ctx, "/queue/heartbeat", HeartbeatRequest{Lease: leaseID}, &resp); err != nil {
		// Transient leader trouble: keep beating — the next one may land
		// before the lease lapses.
		return ctx.Err() == nil
	}
	return resp.Live
}

func (w *PullWorker) complete(ctx context.Context, leaseID uint64, key string, res wire.Result, cached bool) error {
	return w.post(ctx, "/queue/complete",
		CompleteRequest{Lease: leaseID, Key: key, Result: res, Cached: cached}, nil)
}

func (w *PullWorker) fail(ctx context.Context, leaseID uint64, key, msg string) error {
	return w.post(ctx, "/queue/complete",
		CompleteRequest{Lease: leaseID, Key: key, Err: msg}, nil)
}

func (w *PullWorker) nack(ctx context.Context, leaseID uint64, keys []string) error {
	return w.post(ctx, "/queue/nack", NackRequest{Lease: leaseID, Keys: keys}, nil)
}
