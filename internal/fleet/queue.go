// Package fleet is the dispatch layer for heterogeneous worker fleets.
//
// The static distribution the engine grew up with — `-shard I/N` hash
// partitioning and round-robin `-serve-addrs` — assigns work blindly:
// one slow node stalls the whole sweep, and a spec whose warm run-cache
// entry lives on worker A is routinely sent to worker B. This package
// inverts and scores that control flow, in two complementary modes:
//
//   - Pull (work-stealing): the driver runs a Queue behind a Leader
//     HTTP endpoint; bpserve workers in `-pull` mode claim batches of
//     specs under a lease, heartbeat while simulating, and report
//     results back. A lease that expires — dead worker, partitioned
//     worker, worker too slow to heartbeat — re-enqueues its
//     outstanding specs, so the rest of the fleet steals the stalled
//     cells instead of waiting on them.
//
//   - Push (scored routing): a Scorer orders the workers a wire.Client
//     should try for each spec — round-robin (the old behavior),
//     least-loaded on live /statz counters, probed-capacity-weighted,
//     or run-cache affinity (rendezvous-hashed on the spec's wire key,
//     so a spec deterministically lands where its cache entry lives).
//
// Neither mode changes what a sweep computes: results are pure
// functions of their canonical specs, so every policy and topology
// yields byte-identical merged tables (tested; STRATEGY_LEDGER.md
// records the honest wall-clock comparison, including where the naive
// policy wins).
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"xorbp/internal/wire"
)

// DefaultLease is the claim lease duration: a worker that neither
// completes nor heartbeats within this window forfeits its batch to
// the rest of the fleet. Long enough that an honest worker's periodic
// heartbeat (sent every lease/3) never lapses by accident; short
// enough that a dead worker stalls a sweep by seconds, not minutes.
const DefaultLease = 15 * time.Second

// itemState tracks one spec through the queue.
type itemState uint8

const (
	statePending itemState = iota // waiting in the queue
	stateLeased                   // claimed by a worker, lease live
	stateDone                     // resolved (result or terminal error)
)

// item is one queued spec and its resolution.
type item struct {
	key   string
	spec  wire.Spec
	state itemState
	lease uint64 // owning lease while stateLeased

	res     wire.Result
	cached  bool   // worker answered from its store
	failMsg string // terminal failure ("" = success)
	done    chan struct{}
}

// lease is one worker's claim over a batch of items.
type lease struct {
	id       uint64
	worker   string
	deadline time.Time
	// out holds the lease's still-outstanding items by key.
	out map[string]*item
}

// Stats is a point-in-time summary of queue traffic.
type Stats struct {
	Submitted  int // distinct specs ever enqueued
	Pending    int // waiting for a claim right now
	Leased     int // claimed, not yet resolved
	Done       int // resolved
	Stolen     int // re-enqueued from expired leases
	Nacked     int // returned by draining workers
	Duplicates int // completions for already-resolved specs (dropped)
	Late       int // completions accepted after their lease expired
	Workers    int // distinct worker IDs ever seen
}

// Queue is the leader-side pull queue: the driver submits specs and
// blocks on their results; workers claim batches under leases and
// report back. All clocks are injected (the bpvet determinism rule,
// and lease-expiry tests run on a fake clock).
type Queue struct {
	now   func() time.Time
	lease time.Duration

	mu      sync.Mutex
	pending []*item // FIFO; stolen/nacked work returns to the front
	items   map[string]*item
	leases  map[uint64]*lease
	nextID  uint64
	workers map[string]bool
	stats   Stats
	// wake is closed, and replaced, whenever pending grows, releasing
	// every Claim waiting on an empty queue.
	wake chan struct{}
}

// NewQueue creates a queue with the given lease duration (<= 0 selects
// DefaultLease). now supplies the clock (time.Now in production;
// injected so expiry is testable and the package stays free of
// wall-clock reads).
func NewQueue(leaseDur time.Duration, now func() time.Time) *Queue {
	if leaseDur <= 0 {
		leaseDur = DefaultLease
	}
	return &Queue{
		now:     now,
		lease:   leaseDur,
		items:   make(map[string]*item),
		leases:  make(map[uint64]*lease),
		workers: make(map[string]bool),
		wake:    make(chan struct{}),
	}
}

// Lease returns the queue's lease duration (workers size their
// heartbeat interval from it).
func (q *Queue) Lease() time.Duration { return q.lease }

// Submit enqueues one spec and blocks until a worker resolves it (or
// ctx cancels). Concurrent submissions of one spec (by wire key)
// coalesce into a single queue entry. cached reports that the worker
// answered from its own store rather than simulating.
func (q *Queue) Submit(ctx context.Context, spec wire.Spec) (res wire.Result, cached bool, err error) {
	key := spec.Key()
	q.mu.Lock()
	it, ok := q.items[key]
	if !ok {
		it = &item{key: key, spec: spec, done: make(chan struct{})}
		q.items[key] = it
		q.pending = append(q.pending, it)
		q.stats.Submitted++
		q.wakeLocked()
	}
	q.mu.Unlock()

	select {
	case <-it.done:
	case <-ctx.Done():
		return wire.Result{}, false, ctx.Err()
	}
	// state is immutable once done closes; no lock needed to read it.
	if it.failMsg != "" {
		return wire.Result{}, false, fmt.Errorf("fleet: %s", it.failMsg)
	}
	return it.res, it.cached, nil
}

// Claim hands worker up to max pending specs under a fresh lease.
// Expired leases are reclaimed first, so a starving worker steals a
// dead peer's batch on its next claim. On an empty queue Claim waits
// for work to arrive (a submission, a nack, a reclaimed lease) until
// ctx is done; a ctx that is already done makes it a single
// non-blocking attempt. A zero lease ID means no work arrived in time.
func (q *Queue) Claim(ctx context.Context, worker string, max int) (leaseID uint64, specs []wire.Spec) {
	if max < 1 {
		max = 1
	}
	for {
		id, specs, wake := q.tryClaim(worker, max)
		if id != 0 {
			return id, specs
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return 0, nil
		}
	}
}

// tryClaim leases up to max pending specs to worker or, with nothing
// pending, returns the channel the next arrival closes.
func (q *Queue) tryClaim(worker string, max int) (leaseID uint64, specs []wire.Spec, wake <-chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.workers[worker] = true
	q.reclaimExpiredLocked()
	if len(q.pending) == 0 {
		return 0, nil, q.wake
	}
	n := min(max, len(q.pending))
	q.nextID++
	l := &lease{
		id:       q.nextID,
		worker:   worker,
		deadline: q.now().Add(q.lease), //bpvet:locked(q.mu) the injected clock is a non-blocking read; the deadline must be consistent with the claim
		out:      make(map[string]*item, n),
	}
	for _, it := range q.pending[:n] {
		it.state = stateLeased
		it.lease = l.id
		l.out[it.key] = it
		specs = append(specs, it.spec)
	}
	q.pending = append([]*item(nil), q.pending[n:]...)
	q.leases[l.id] = l
	return l.id, specs, nil
}

// Heartbeat extends a live lease to now+lease and reports whether the
// lease still exists. A false return tells the worker its batch has
// been forfeited (it may keep simulating — late results are still
// accepted — but it should not count on exclusivity).
func (q *Queue) Heartbeat(leaseID uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimExpiredLocked()
	l, ok := q.leases[leaseID]
	if !ok {
		return false
	}
	l.deadline = q.now().Add(q.lease) //bpvet:locked(q.mu) the injected clock is a non-blocking read; the extension must be atomic with the lookup
	return true
}

// Complete resolves one spec of a lease with its result. Completions
// are idempotent: the first one wins, later ones (a stolen batch both
// the original and the stealing worker finished) are counted and
// dropped — a spec is never delivered twice to a submitter. Late
// completions from an expired lease are accepted: the result is a pure
// function of the spec, so it is as good as anyone else's.
func (q *Queue) Complete(leaseID uint64, key string, res wire.Result, cached bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	it, ok := q.items[key]
	if !ok {
		return fmt.Errorf("fleet: complete for unknown spec %s", key)
	}
	if it.state == stateDone {
		q.stats.Duplicates++
		return nil
	}
	if _, live := q.leases[leaseID]; !live {
		q.stats.Late++
	}
	// Drop the item from wherever it now sits — its current lease (which
	// may be a different worker's, if the batch was stolen and re-leased)
	// or the pending queue — so no one re-simulates it.
	q.dropLocked(it)
	it.res, it.cached = res, cached
	q.resolveLocked(it)
	return nil
}

// Fail resolves one spec of a lease with a terminal error — the worker
// validated the spec and cannot ever run it (unknown registry name,
// malformed payload). Retrying elsewhere cannot fix such a spec, so
// the error propagates to the submitter (poisoning the sweep loudly)
// instead of bouncing the spec between workers forever.
func (q *Queue) Fail(leaseID uint64, key, msg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	it, ok := q.items[key]
	if !ok {
		return fmt.Errorf("fleet: fail for unknown spec %s", key)
	}
	if it.state == stateDone {
		q.stats.Duplicates++
		return nil
	}
	if _, live := q.leases[leaseID]; !live {
		q.stats.Late++
	}
	q.dropLocked(it)
	if msg == "" {
		msg = "worker reported an unspecified terminal failure"
	}
	it.failMsg = msg
	q.resolveLocked(it)
	return nil
}

// Nack returns a lease's outstanding specs to the queue front — the
// drain path: a worker stopping on SIGTERM finishes what it started
// and hands the rest back immediately instead of letting the lease
// time out. keys selects a subset; nil nacks everything outstanding.
func (q *Queue) Nack(leaseID uint64, keys []string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[leaseID]
	if !ok {
		// Expired meanwhile: the reclaimer already re-enqueued it.
		return nil
	}
	if keys == nil {
		keys = make([]string, 0, len(l.out))
		for k := range l.out {
			keys = append(keys, k)
		}
		// Map order is random; the queue's scheduling should not be.
		sort.Strings(keys)
	}
	var back []*item
	for _, k := range keys {
		if it, out := l.out[k]; out {
			delete(l.out, k)
			it.state = statePending
			it.lease = 0
			back = append(back, it)
			q.stats.Nacked++
		}
	}
	q.pending = append(back, q.pending...)
	q.wakeLocked()
	if len(l.out) == 0 {
		delete(q.leases, leaseID)
	}
	return nil
}

// Stats returns a snapshot of queue traffic (reclaiming any expired
// leases first, so Pending/Leased reflect reality).
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimExpiredLocked()
	st := q.stats
	st.Pending = len(q.pending)
	st.Workers = len(q.workers)
	for _, l := range q.leases {
		st.Leased += len(l.out)
	}
	return st
}

// wakeLocked releases every Claim waiting for work.
func (q *Queue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// resolveLocked marks an item done and wakes its submitters.
func (q *Queue) resolveLocked(it *item) {
	it.state = stateDone
	it.lease = 0
	q.stats.Done++
	close(it.done)
}

// dropLocked removes an item from the pending queue and from any lease
// holding it (used when a late completion resolves a re-enqueued
// spec: whoever was about to redo it should not).
func (q *Queue) dropLocked(it *item) {
	switch it.state {
	case statePending:
		for i, p := range q.pending {
			if p == it {
				q.pending = append(q.pending[:i:i], q.pending[i+1:]...)
				break
			}
		}
	case stateLeased:
		if l, ok := q.leases[it.lease]; ok {
			delete(l.out, it.key)
			if len(l.out) == 0 {
				delete(q.leases, it.lease)
			}
		}
	}
}

// reclaimExpiredLocked re-enqueues every expired lease's outstanding
// items at the queue front — the work-stealing half of the design: the
// next claimer (a live, fast worker) picks up the stalled cells.
func (q *Queue) reclaimExpiredLocked() {
	now := q.now()
	var expired []*lease
	for _, l := range q.leases {
		if now.After(l.deadline) {
			expired = append(expired, l)
		}
	}
	// Map order is random; steal in lease-id order so scheduling is
	// reproducible under a fake clock.
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, l := range expired {
		keys := make([]string, 0, len(l.out))
		for k := range l.out {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var back []*item
		for _, k := range keys {
			it := l.out[k]
			it.state = statePending
			it.lease = 0
			back = append(back, it)
			q.stats.Stolen++
		}
		q.pending = append(back, q.pending...)
		delete(q.leases, l.id)
	}
	if len(expired) > 0 {
		q.wakeLocked()
	}
}
