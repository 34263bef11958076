package experiment

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/runcache"
	"xorbp/internal/runner"
	"xorbp/internal/wire"
)

// runKey is the comparable identity of a runSpec, used as the memo-cache
// key. Embedding core.Options and cpu.Config as struct values (rather
// than formatting them to a string, as the old fmt.Sprintf key did) means
// any field added to either type automatically becomes part of the key —
// two specs differing in a new field can never alias the same cache
// entry.
type runKey struct {
	// kind discriminates the run kinds ("" performance, "attack").
	kind string
	// opts holds the spec's options with the Codec and Scrambler
	// interface fields blanked; their identities live in codec/scrambler
	// below. Keying the interfaces by registry name — the identity the
	// wire form carries — keeps runKey usable as a map key even if a
	// future Codec carries un-comparable state (every current
	// implementation is a stateless struct).
	opts      core.Options
	codec     string
	scrambler string
	predName  string
	cfg       cpu.Config
	timer     uint64
	// names is the software-thread list joined with NUL (workload names
	// never contain NUL); a variable-length slice cannot sit in a
	// comparable struct directly.
	names string
	scale Scale
	// atk is the attack-job payload (zero for performance runs); every
	// field is scalar, so it embeds in the comparable key directly.
	atk attackCell
}

// specKey builds the cache key for a fully-populated spec (scale set).
// Options are normalized first, so a zero Scope/Codec/Scrambler and the
// explicit paper defaults — which the controller runs identically — map
// to the same cache entry. The key holds exactly the fields specToWire
// encodes, so equal keys have equal wire keys: RunBatch relies on this
// when it reuses the wire key Plan stored for a key.
func specKey(s runSpec) runKey {
	o := s.opts.Normalized()
	k := runKey{
		kind:      s.kind,
		opts:      o,
		codec:     o.Codec.Name(),     //bpvet:allow Codec.Name implementations are compile-time string literals; the registry round-trip test pins them
		scrambler: o.Scrambler.Name(), //bpvet:allow Scrambler.Name implementations are compile-time string literals; the registry round-trip test pins them
		predName:  s.predName,
		cfg:       s.cfg,
		timer:     s.timer,
		names:     strings.Join(s.names, "\x00"),
		scale:     s.scale,
		atk:       s.atk,
	}
	k.opts.Codec, k.opts.Scrambler = nil, nil
	return k
}

// cellState is where a cell stands: open (declared and unresolved, with
// no batch working on it — where a released claim returns), claimed by
// one batch (any other batch needing it waits on done), done (res is
// final) or skipped under the shard assignment (res stays zero).
type cellState uint8

const (
	cellOpen cellState = iota
	cellClaimed
	cellDone
	cellSkipped
)

// cell is the executor's record of one distinct spec — memo entry,
// in-flight claim and progress bookkeeping in one, so a batch looks each
// spec up once.
type cell struct {
	dk    string // wire key; "" until derived
	state cellState
	// warm marks a cell store-resident at Plan time and not yet settled:
	// it will replay, not simulate, so the ETA excludes it from its
	// backlog. The flag clears however the cell settles, so a store entry
	// vanishing between Plan and RunBatch (concurrent GC, corruption)
	// cannot skew the count.
	warm bool
	res  RunResult
	done chan struct{} // closed when the current claim ends
}

// Executor runs batches of simulations with a thread-safe memo cache,
// dispatching every cache miss through a pluggable Backend: the
// in-process bounded pool by default (LocalBackend), or a pull-queue
// leader (fleet.Backend). One Executor can back several Sessions
// (the figures sharing baselines, Table 4's longer-window session) so a
// spec simulated for one figure is never recomputed for another. An
// optional persistent store (SetStore) acts as an L2 behind the memo
// cache so results survive the process — and, shared between shards,
// acts as the merge substrate for distributed sweeps.
type Executor struct {
	workers int
	backend Backend
	// sem bounds simulations in flight across ALL concurrent RunBatch
	// calls — the worker limit is per executor, not per batch.
	sem      chan struct{}
	progress io.Writer
	pmu      sync.Mutex // serializes progress lines

	// dry marks a planner (NewPlanner): RunBatch records each batch's
	// distinct specs and returns zero results without simulating.
	dry bool

	// shardI/shardN statically partition the grid: a sharded executor
	// only simulates specs whose wire key hashes to its shard, skipping
	// the rest (SetShard).
	shardI, shardN int

	store  *runcache.Store
	record func(RunRecord)
	rmu    sync.Mutex // serializes record-hook invocations

	// observer, when set, receives every resolved (key, result) pair
	// (SetJournal). The sink serializes its own bookkeeping.
	observer JournalSink

	mu sync.Mutex
	// err is sticky: the first backend failure poisons the executor, and
	// later batches short-circuit instead of piling more failures on a
	// dead fleet.
	err error
	// cells holds every distinct spec declared (via Plan) or seen by a
	// batch. Progress lines and the ETA are computed against it, so a
	// pre-planned session reports x/total over the whole grid rather
	// than per batch.
	cells map[runKey]*cell
	// resolved, skipped and warm count the cells done, skipped and
	// flagged warm; replays counts persistent-store replays published by
	// this executor.
	resolved, skipped, warm, replays int
	// simStart/simsDone drive the ETA estimate: observed simulation
	// throughput since the first simulation began.
	simStart time.Time
	simsDone int

	runs atomic.Uint64 // simulations executed (cache misses)
}

// RunRecord describes one resolved spec: an executed simulation, or a
// result replayed from the persistent store (Cached). Within-process
// memo hits are not re-reported. Performance runs carry Cycles/MPKI;
// attack jobs carry Rate instead.
type RunRecord struct {
	Label      string  `json:"label"`
	Key        string  `json:"key"` // persistent-store key hash
	Cycles     uint64  `json:"cycles"`
	MPKI       float64 `json:"mpki"`
	Rate       float64 `json:"rate,omitempty"` // attack jobs: measured success rate
	DurationMS float64 `json:"duration_ms"`    // 0 for cached replays
	Cached     bool    `json:"cached"`
}

// recordFor assembles the RunRecord for a resolved spec of either kind.
func recordFor(s runSpec, dk string, r RunResult, durMS float64, cached bool) RunRecord {
	rec := RunRecord{
		Label:      specLabel(s),
		Key:        dk,
		DurationMS: durMS,
		Cached:     cached,
	}
	if r.Attack != nil {
		rec.Rate = r.Attack.Rate()
	} else {
		rec.Cycles = r.Cycles
		rec.MPKI = r.Target.MPKI()
	}
	return rec
}

// NewExecutor creates an executor over the in-process backend with the
// given worker-pool size. workers <= 0 selects one worker per available
// CPU.
func NewExecutor(workers int) *Executor {
	return NewExecutorWith(workers, nil)
}

// NewExecutorWith creates an executor dispatching through backend (nil
// selects the in-process LocalBackend). workers bounds specs in flight;
// for a pull-queue backend, keep enough outstanding that every claiming
// worker finds a full batch.
func NewExecutorWith(workers int, backend Backend) *Executor {
	if workers <= 0 {
		workers = runner.DefaultWorkers()
	}
	if backend == nil {
		backend = LocalBackend{}
	}
	return &Executor{
		workers: workers,
		backend: backend,
		sem:     make(chan struct{}, workers),
		cells:   make(map[runKey]*cell),
	}
}

// NewPlanner returns a planning executor: its RunBatch records every
// distinct spec without simulating and returns zero results. Render a
// session's figures against a planner to enumerate the full grid
// cheaply (the tables produced are garbage and must be discarded), then
// declare the grid on the real executor with Plan.
func NewPlanner() *Executor {
	e := NewExecutor(1)
	e.dry = true
	return e
}

// Workers returns the worker-pool size.
func (e *Executor) Workers() int { return e.workers }

// SetProgress makes the executor emit one line per completed simulation
// to w (pass nil to disable). Lines are serialized; safe with any worker
// count.
func (e *Executor) SetProgress(w io.Writer) { e.progress = w }

// SetStore attaches a persistent result store as the L2 behind the
// in-memory memo cache: cache misses consult it before simulating, and
// every completed simulation writes through to it. Attach before the
// first batch runs.
func (e *Executor) SetStore(st *runcache.Store) { e.store = st }

// Store returns the attached persistent store (nil if none).
func (e *Executor) Store() *runcache.Store { return e.store }

// JournalSink observes results: it receives every resolved spec, executed
// or replayed from the store, keyed by canonical wire key. Calls may come
// from several workers at once, so implementations serialize their own
// bookkeeping.
type JournalSink interface {
	Completed(key string, res RunResult)
}

// SetJournal attaches a result observer. Install before the first batch
// runs.
func (e *Executor) SetJournal(j JournalSink) { e.observer = j }

// PlannedKeys returns the known wire keys of every declared or seen
// spec, sorted: Plan records each planned spec's key, and a batch the
// key of each spec it had to hash.
func (e *Executor) PlannedKeys() []string {
	e.mu.Lock()
	keys := make([]string, 0, len(e.cells))
	for _, c := range e.cells {
		if c.dk != "" {
			keys = append(keys, c.dk)
		}
	}
	e.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// SetRecord installs a hook receiving one RunRecord per resolved spec —
// each executed simulation and each persistent-store replay.
// Invocations are serialized; install before the first batch runs.
func (e *Executor) SetRecord(fn func(RunRecord)) { e.record = fn }

// SetShard restricts the executor to shard i of n (0-based): specs whose
// wire key hashes outside the shard are skipped instead of simulated,
// and their results stay zero. Shard assignment depends only on the
// canonical wire key, so n cooperating processes partition any grid
// exactly, with no coordination beyond agreeing on n. Sharded runs are
// cache-population runs: point every shard at one store directory, then
// render with an unsharded run that replays the union. Set before the
// first batch runs.
func (e *Executor) SetShard(i, n int) {
	if n < 1 || i < 0 || i >= n {
		panic(fmt.Sprintf("experiment: invalid shard %d/%d", i, n))
	}
	e.shardI, e.shardN = i, n
}

// Shard returns the executor's shard assignment (0, 1 when unsharded).
func (e *Executor) Shard() (i, n int) {
	if e.shardN == 0 {
		return 0, 1
	}
	return e.shardI, e.shardN
}

// shardOf maps a wire key (hex SHA-256) to its owning shard by its
// leading 64 bits.
func shardOf(dk string, n int) int {
	if len(dk) < 16 {
		return 0
	}
	v, err := strconv.ParseUint(dk[:16], 16, 64)
	if err != nil {
		return 0
	}
	return int(v % uint64(n))
}

// Err returns the sticky backend error, if any batch has failed.
func (e *Executor) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Plan copies the distinct specs recorded by a planning executor into
// e's cell table and returns the total now declared. Progress lines and
// the ETA are then computed over the whole declared grid instead of
// growing batch by batch. If a persistent store is attached, the
// planned keys are probed against it so the ETA's backlog counts only
// the cells that will actually simulate — on a warm cache, the ETA
// reflects the handful of new cells, not the whole grid.
func (e *Executor) Plan(planner *Executor) int {
	type pk struct {
		k    runKey
		dk   string
		warm bool
	}
	planner.mu.Lock()
	pks := make([]pk, 0, len(planner.cells))
	for k, c := range planner.cells {
		pks = append(pks, pk{k: k, dk: c.dk})
	}
	planner.mu.Unlock()
	// Probe the store outside e.mu: Contains is memory-speed, but the
	// grid can be large and the store has its own lock.
	if e.store != nil {
		for i := range pks {
			pks[i].warm = pks[i].dk != "" && e.store.Contains(pks[i].dk)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.cells) == 0 {
		e.cells = make(map[runKey]*cell, len(pks))
	}
	for _, p := range pks {
		c := e.cellLocked(p.k)
		if c.dk == "" {
			c.dk = p.dk
		}
		// A cell already settled, or claimed by a running batch, is out
		// of the backlog or about to leave it; marking it warm now would
		// undercount forever.
		if p.warm && c.state == cellOpen && !c.warm {
			c.warm = true
			e.warm++
		}
	}
	return len(e.cells)
}

// cellLocked returns k's cell, creating an open one on first sight.
// Called with e.mu held.
func (e *Executor) cellLocked(k runKey) *cell {
	c, ok := e.cells[k]
	if !ok {
		c = &cell{}
		e.cells[k] = c
	}
	return c
}

// Planned returns the number of distinct specs declared or seen so far.
func (e *Executor) Planned() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cells)
}

// Done returns the number of distinct specs resolved so far.
func (e *Executor) Done() int { return e.CacheSize() }

// Runs returns how many simulations have actually executed — cache hits
// and within-batch duplicates are not counted.
func (e *Executor) Runs() uint64 { return e.runs.Load() }

// Replays returns how many results were replayed from the persistent
// store.
func (e *Executor) Replays() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replays
}

// Skipped returns how many distinct specs this executor declined under
// its shard assignment.
func (e *Executor) Skipped() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.skipped
}

// CacheSize returns the number of distinct specs resolved so far.
func (e *Executor) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resolved
}

// RunBatch resolves a batch of specs and returns their results in spec
// order. Specs already in the memo cache are served from it; remaining
// specs consult the persistent store (if attached); the rest are
// deduplicated (a spec appearing twice simulates once, including across
// concurrent batches) and fanned out across the backend, bounded by the
// worker count. Every simulation is a pure function of its spec, so the
// results — and any report rendered from them — are identical for every
// worker count and every backend.
//
// Under a shard assignment, misses owned by other shards are skipped and
// their results stay zero; after a backend failure the executor is
// poisoned (Err) and further batches return zero results immediately.
func (e *Executor) RunBatch(specs []runSpec) []RunResult {
	keys := make([]runKey, len(specs))
	for i, s := range specs {
		keys[i] = specKey(s)
	}
	if e.dry {
		// Planning: record the grid with its wire keys (the hash lets
		// Plan probe the store and shard assignments stay computable).
		e.mu.Lock()
		for i, k := range keys {
			if c := e.cellLocked(k); c.dk == "" {
				c.dk = specToWire(specs[i]).Key()
			}
		}
		e.mu.Unlock()
		return make([]RunResult, len(specs))
	}
	if e.Err() != nil {
		return make([]RunResult, len(specs))
	}

	// Phase 1: look up each spec's cell once and claim every open one.
	// A cell claimed by a concurrently-running batch, or by an earlier
	// duplicate in this one, is not resolved again: the batch waits on
	// its channel before assembling. Once claimed, a cell is this
	// batch's alone until it settles or is released.
	type claim struct {
		i  int       // index into specs
		c  *cell     // the claimed cell
		dk string    // persistent-store key hash
		r  RunResult // the stored result, when ok
		ok bool      // r was replayed from the store
	}
	var (
		claims []claim
		waits  []chan struct{}
	)
	cells := make([]*cell, len(specs))
	e.mu.Lock()
	for i, k := range keys {
		c := e.cellLocked(k)
		cells[i] = c
		switch c.state {
		case cellOpen:
			c.state = cellClaimed
			c.done = make(chan struct{})
			claims = append(claims, claim{i: i, c: c, dk: c.dk})
		case cellClaimed:
			waits = append(waits, c.done)
		}
	}
	e.mu.Unlock()

	// Phase 2: derive the wire key of each claim whose key is unknown
	// where it is needed (the hash names the run in records, keys the
	// store, and assigns shards) and consult the persistent store — all
	// outside e.mu, so neither the marshal+SHA-256 nor the store's own
	// lock extends the executor's critical section. Only misses that
	// dispatch get a wire form, after phase 3.
	hashKeys := e.store != nil || e.record != nil || e.shardN > 1 ||
		e.observer != nil
	for j := range claims {
		cl := &claims[j]
		if cl.dk == "" && hashKeys {
			cl.dk = specToWire(specs[cl.i]).Key()
		}
		cl.r, cl.ok = e.decodeStored(cl.dk)
	}

	// Phase 3: publish the replays and skip cells owned by other shards;
	// the rest are misses to dispatch. The replays are compacted into the
	// front of claims.
	var misses []claim
	replays := claims[:0]
	e.mu.Lock()
	for _, cl := range claims {
		if cl.c.dk == "" {
			cl.c.dk = cl.dk
		}
		switch {
		case cl.ok:
			e.settleLocked(cl.c, cellDone, cl.r)
			e.replays++
			replays = append(replays, cl)
		case e.shardN > 1 && shardOf(cl.dk, e.shardN) != e.shardI:
			e.settleLocked(cl.c, cellSkipped, RunResult{})
		default:
			misses = append(misses, cl)
		}
	}
	e.mu.Unlock()
	for _, cl := range replays {
		e.observe(cl.dk, cl.r)
		e.emit(&specs[cl.i], cl.dk, cl.r, 0, true)
	}

	// The wire form of each miss is the backend contract; the fork path
	// decodes it too.
	missSpecs := make([]runSpec, len(misses))
	missWire := make([]wire.Spec, len(misses))
	for j, cl := range misses {
		missSpecs[j] = specs[cl.i]
		missWire[j] = specToWire(specs[cl.i])
	}

	// Execute: fan the misses out across the backend as units. With the
	// in-process backend, forkable misses sharing a divergence prefix are
	// chained into one unit (ascending re-key period) so each member
	// extends the previous member's snapshotted prefix instead of
	// re-simulating it; everything else dispatches one spec per unit.
	// Each simulation publishes to the cache (and writes through to the
	// store) as it completes, so concurrent batches waiting on it unblock
	// early and progress counters advance per run, not per unit. Remote
	// backends never chain: per-spec dispatch keeps the wire contract
	// unchanged, and byte-identity of forked results makes the two paths
	// interchangeable.
	type unit struct {
		idxs []int
		fork bool
	}
	var units []unit
	if _, local := e.backend.(LocalBackend); local {
		chains, singles := forkFamilies(missSpecs)
		for _, i := range singles {
			units = append(units, unit{idxs: []int{i}})
		}
		for _, ch := range chains {
			units = append(units, unit{idxs: ch, fork: true})
		}
	} else {
		for i := range missSpecs {
			units = append(units, unit{idxs: []int{i}})
		}
	}
	runner.Map(len(units), e.workers, func(u int) struct{} {
		var prev []byte // the chain's latest divergence snapshot
		for _, i := range units[u].idxs {
			c := misses[i].c
			if e.Err() != nil {
				// The fleet is already failing: release the claim so
				// waiters unblock, without piling on more doomed
				// dispatches.
				e.release(c)
				continue
			}
			e.sem <- struct{}{} // a slot is held only while simulating
			start := time.Now() //bpvet:allow progress/ETA telemetry; durations never reach results or keys
			e.noteSimStart(start)
			var (
				r   RunResult
				err error
			)
			if units[u].fork {
				// Decode through the wire form like LocalBackend does, so
				// the simulated spec is normalization-identical either way.
				var s runSpec
				if s, err = specFromWire(missWire[i]); err == nil {
					r, prev = runForked(s, prev)
				}
			} else {
				r, err = e.backend.Run(context.Background(), missWire[i])
			}
			<-e.sem
			if err != nil {
				e.fail(fmt.Errorf("experiment: %s: %w", specLabel(missSpecs[i]), err))
				e.release(c)
				continue
			}
			e.publish(&missSpecs[i], c, misses[i].dk, r, start)
		}
		return struct{}{}
	})

	// Wait out any runs owned by other batches, then assemble in
	// submission order. Skipped and failed specs stay zero-valued.
	for _, ch := range waits {
		<-ch
	}
	out := make([]RunResult, len(specs))
	e.mu.Lock()
	for i, c := range cells {
		out[i] = c.res
	}
	e.mu.Unlock()
	return out
}

// settleLocked ends a claim for good: the cell becomes done with result
// r, or skipped, leaves the warm backlog, and its waiters unblock.
// Called with e.mu held.
func (e *Executor) settleLocked(c *cell, st cellState, r RunResult) {
	c.state, c.res = st, r
	if st == cellDone {
		e.resolved++
	} else {
		e.skipped++
	}
	if c.warm {
		c.warm = false
		e.warm--
	}
	close(c.done)
}

// publish records one completed simulation: the cell's result (ending
// its claim), progress line, persistent store write-through, and the
// record hook.
func (e *Executor) publish(s *runSpec, c *cell, dk string, r RunResult, start time.Time) {
	dur := time.Since(start) //bpvet:allow progress/ETA telemetry; durations never reach results or keys
	e.runs.Add(1)
	// pmu is taken before e.mu (the only ordering used anywhere), so
	// publishing a result and printing its progress line are atomic
	// with respect to other workers: the done/planned counters on
	// stderr are monotonic.
	if e.progress != nil {
		e.pmu.Lock()
	}
	e.mu.Lock()
	e.settleLocked(c, cellDone, r)
	e.simsDone++
	done, planned := e.resolved+e.skipped, len(e.cells)
	eta := e.etaLocked()
	e.mu.Unlock()
	if e.progress != nil {
		//bpvet:locked(e.pmu) the progress line must be atomic with the counters read under e.mu above; pmu orders writers and is held only for one Fprintf to a local writer
		fmt.Fprintf(e.progress, "[run %d/%d] %s (%v)%s\n",
			done, planned, specLabel(*s),
			dur.Round(time.Millisecond), eta)
		e.pmu.Unlock()
	}
	if e.store != nil {
		e.storePut(dk, r)
	}
	e.observe(dk, r)
	e.emit(s, dk, r, float64(dur)/float64(time.Millisecond), false)
}

// observe forwards one resolved result to the observer, if any.
func (e *Executor) observe(dk string, r RunResult) {
	if e.observer != nil {
		e.observer.Completed(dk, r)
	}
}

// fail records the first backend error; the executor is poisoned from
// then on.
func (e *Executor) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// release abandons a claim without publishing a result: the cell goes
// back to open, and concurrent batches waiting on it unblock (to a zero
// result) instead of deadlocking.
func (e *Executor) release(c *cell) {
	e.mu.Lock()
	c.state = cellOpen
	close(c.done)
	e.mu.Unlock()
}

// decodeStored consults the persistent store for a wire key. The
// store's content is memory-resident after Open, so this is a map lookup
// plus a decode. wire.DecodeResult accepts only the canonical form
// storePut writes, so an undecodable value is a non-canonical or damaged
// one that passed the segment CRC; it is treated as a miss, re-simulated
// and overwritten.
func (e *Executor) decodeStored(dk string) (RunResult, bool) {
	if dk == "" || e.store == nil {
		return RunResult{}, false
	}
	raw, ok := e.store.Get(dk)
	if !ok {
		return RunResult{}, false
	}
	r, err := wire.DecodeResult(raw)
	if err != nil {
		return RunResult{}, false
	}
	return r, true
}

// storePut writes a completed simulation through to the persistent
// store in its canonical encoding — byte-identical to what a bpserve
// worker sharing the directory would write for the same spec.
// Best-effort: a failed write (full disk, read-only cache dir) only
// costs a future re-simulation, and the store counts it.
func (e *Executor) storePut(dk string, r RunResult) {
	_ = e.store.Put(dk, r.Encode())
}

// emit delivers the RunRecord of one resolved spec to the hook,
// serialized. Without a hook no record is built.
func (e *Executor) emit(s *runSpec, dk string, r RunResult, durMS float64, cached bool) {
	if e.record == nil {
		return
	}
	rec := recordFor(*s, dk, r, durMS, cached)
	e.rmu.Lock()
	e.record(rec) //bpvet:locked(e.rmu) rmu exists to serialize this hook call; the hook is caller-owned and documented to be brief and non-reentrant
	e.rmu.Unlock()
}

// noteSimStart records the first simulation's start time, the basis of
// the ETA's throughput estimate.
func (e *Executor) noteSimStart(t time.Time) {
	e.mu.Lock()
	if e.simStart.IsZero() {
		e.simStart = t
	}
	e.mu.Unlock()
}

// etaLocked estimates the time to resolve the rest of the simulatable
// backlog from the observed simulation throughput. The backlog excludes
// cells already resolved, cells skipped by the shard assignment, and
// planned cells known (at Plan time) to be store-resident — a warm run
// that only adds a few new cells gets an ETA for those cells, not a
// bogus estimate over the whole grid. Called with e.mu held; returns ""
// until there is both a backlog and a throughput sample.
func (e *Executor) etaLocked() string {
	remaining := len(e.cells) - e.resolved - e.skipped - e.warm
	if remaining <= 0 || e.simsDone == 0 || e.simStart.IsZero() {
		return ""
	}
	elapsed := time.Since(e.simStart) //bpvet:allow ETA estimation for the progress line only
	if elapsed <= 0 {
		return ""
	}
	perRun := elapsed / time.Duration(e.simsDone)
	return fmt.Sprintf(" eta %v", (perRun * time.Duration(remaining)).Round(time.Second))
}

// specLabel is the human-readable one-line description used by progress
// output.
func specLabel(s runSpec) string {
	o := s.opts.Normalized()
	if s.kind == wire.KindAttack {
		pred := s.predName
		if pred == "" {
			pred = "bimodal"
		}
		return fmt.Sprintf("attack=%s %s scope=%s sc=%s pred=%s rekey=%d trials=%d seed=%d",
			s.atk.name, o.Mechanism, o.Scope, s.atk.scenario, pred,
			s.atk.rekey, s.atk.trials, s.atk.seed)
	}
	return fmt.Sprintf("%s scope=%s pred=%s cfg=%s timer=%d threads=%s",
		o.Mechanism, o.Scope, s.predName, s.cfg.Name, s.timer,
		strings.Join(s.names, "+"))
}

// A batch is the planning half of the two-phase engine. Figure and table
// runners first declare every simulation they need with add, then call
// exec once; independent simulations — baselines for all periods, pairs
// and predictors — resolve concurrently instead of one at a time.
type batch struct {
	s     *Session
	specs []runSpec
	res   []RunResult
	done  bool
}

// batch starts an empty plan against the session's scale and executor.
func (s *Session) batch() *batch { return &batch{s: s} }

// add schedules one simulation and returns a handle whose result becomes
// available after exec.
func (b *batch) add(spec runSpec) pending {
	spec.scale = b.s.scale
	b.specs = append(b.specs, spec)
	return pending{b: b, i: len(b.specs) - 1}
}

// exec resolves every scheduled simulation through the executor.
func (b *batch) exec() {
	b.res = b.s.exec.RunBatch(b.specs)
	b.done = true
}

// oPair is a planned baseline/mechanism run pair resolving to one
// normalized overhead — the shape of nearly every figure cell.
type oPair struct{ base, mech pending }

// overheadPair schedules a baseline and a mechanism run. Cache dedup
// makes a baseline shared between several pairs free.
func (b *batch) overheadPair(base, mech runSpec) oPair {
	return oPair{base: b.add(base), mech: b.add(mech)}
}

// overhead resolves the pair to the mechanism's overhead vs its baseline.
func (p oPair) overhead() float64 {
	return Overhead(p.mech.result().Cycles, p.base.result().Cycles)
}

// pending is a handle to one scheduled simulation's future result.
type pending struct {
	b *batch
	i int
}

// result returns the resolved RunResult; it panics if the batch has not
// executed (a planning bug, not a runtime condition).
func (p pending) result() RunResult {
	if !p.b.done {
		panic("experiment: pending.result read before batch.exec")
	}
	return p.b.res[p.i]
}
