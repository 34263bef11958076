package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xorbp/internal/runcache"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

// storedExec opens (or reopens) a store on dir under the current schema
// and attaches it to a fresh executor.
func storedExec(t *testing.T, dir string, workers int) *Executor {
	t.Helper()
	st, err := runcache.Open(dir, SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(workers)
	e.SetStore(st)
	return e
}

// testSpecs is a small distinct-spec batch for store tests.
func testSpecs(scale Scale) []runSpec {
	pairs := workload.SingleCorePairs()
	specs := []runSpec{
		singleSpec(baselineOpts(), pairs[0], 300_000),
		singleSpec(figure1CF(), pairs[0], 300_000),
		singleSpec(baselineOpts(), pairs[1], 300_000),
	}
	for i := range specs {
		specs[i].scale = scale
	}
	return specs
}

// TestExecutorStoreRoundTrip is the tentpole's core guarantee: a second
// executor (a later process) backed by the same cache directory resolves
// an identical batch with zero simulations and identical results.
func TestExecutorStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := testSpecs(microScale())

	e1 := storedExec(t, dir, 2)
	first := e1.RunBatch(specs)
	if got := e1.Runs(); got != uint64(len(specs)) {
		t.Fatalf("cold store executed %d runs, want %d", got, len(specs))
	}

	e2 := storedExec(t, dir, 2)
	second := e2.RunBatch(specs)
	if got := e2.Runs(); got != 0 {
		t.Fatalf("warm store executed %d runs, want 0", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replayed results differ:\n%+v\nvs\n%+v", first, second)
	}
}

// killedAfter runs its first n specs in-process and fails every later
// one, as a sweep whose process dies part-way through.
type killedAfter struct {
	n     int64
	calls atomic.Int64
}

func (b *killedAfter) Run(ctx context.Context, spec wire.Spec) (RunResult, error) {
	if b.calls.Add(1) > b.n {
		return RunResult{}, errors.New("process killed")
	}
	return LocalBackend{}.Run(ctx, spec)
}

// TestResumeFromStoreAfterFailure: a sweep that dies after n cells has
// written those n results to its store; run again on the reopened
// directory, it replays exactly those n, simulates exactly the rest, and
// ends with the results of an uninterrupted run.
func TestResumeFromStoreAfterFailure(t *testing.T) {
	dir := t.TempDir()
	specs := testSpecs(microScale())
	want := NewExecutor(1).RunBatch(specs)
	const n = 2

	st, err := runcache.Open(dir, SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	killed := NewExecutorWith(2, &killedAfter{n: n})
	killed.SetStore(st)
	killed.RunBatch(specs)
	if killed.Err() == nil {
		t.Fatal("the backend failure did not surface")
	}
	if killed.Runs() != n || st.Len() != n {
		t.Fatalf("killed sweep finished %d cells and stored %d, want %d", killed.Runs(), st.Len(), n)
	}

	resumed := storedExec(t, dir, 2)
	got := resumed.RunBatch(specs)
	if resumed.Replays() != n || resumed.Runs() != uint64(len(specs)-n) {
		t.Fatalf("resumed sweep replayed %d and simulated %d, want %d and %d",
			resumed.Replays(), resumed.Runs(), n, len(specs)-n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed results differ from an uninterrupted run:\n%+v\nvs\n%+v", got, want)
	}
}

// TestExecutorStoreSchemaMismatch: entries written under another schema
// version are invisible — the executor re-simulates rather than aliasing
// them.
func TestExecutorStoreSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	specs := testSpecs(microScale())
	storedExec(t, dir, 2).RunBatch(specs)

	stale, err := runcache.Open(dir, "some-older-schema")
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(2)
	e.SetStore(stale)
	e.RunBatch(specs)
	if got := e.Runs(); got != uint64(len(specs)) {
		t.Fatalf("schema-mismatched store replayed entries: %d runs, want %d",
			got, len(specs))
	}
}

// TestExecutorsConcurrentSharedCacheDir: two executors, each with its
// own Store handle on one directory (two concurrent bpsim processes),
// run overlapping batches under -race; afterwards a third executor
// replays the union without simulating.
func TestExecutorsConcurrentSharedCacheDir(t *testing.T) {
	dir := t.TempDir()
	specs := testSpecs(microScale())
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		e := storedExec(t, dir, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.RunBatch(specs)
		}()
	}
	wg.Wait()

	e := storedExec(t, dir, 2)
	e.RunBatch(specs)
	if got := e.Runs(); got != 0 {
		t.Fatalf("after concurrent writers, replay executed %d runs, want 0", got)
	}
	if n := e.Store().Len(); n != len(specs) {
		t.Fatalf("shared dir holds %d entries, want %d", n, len(specs))
	}
}

// TestConcurrentBatchesReplayOnce: two batches racing on one executor
// for a store-resident cell replay it exactly once — one claims it, the
// other waits on that claim — and both get the stored result. Each
// round uses a fresh executor over the same store, so the race is run
// many times.
func TestConcurrentBatchesReplayOnce(t *testing.T) {
	dir := t.TempDir()
	spec := testSpecs(microScale())[0]
	want := storedExec(t, dir, 1).RunBatch([]runSpec{spec})[0]
	st, err := runcache.Open(dir, SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		e := NewExecutor(2)
		e.SetStore(st)
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			got   [2]RunResult
		)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = e.RunBatch([]runSpec{spec})[0]
			}()
		}
		close(start)
		wg.Wait()
		if e.Replays() != 1 || e.Runs() != 0 {
			t.Fatalf("round %d: %d replays and %d runs, want 1 and 0", round, e.Replays(), e.Runs())
		}
		for g, r := range got {
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("round %d: batch %d got %+v, want the stored %+v", round, g, r, want)
			}
		}
	}
}

// TestRunRecords: the record hook sees one Cached=false record per
// simulation, one Cached=true record per store replay, and nothing for
// in-process memo hits.
func TestRunRecords(t *testing.T) {
	dir := t.TempDir()
	spec := testSpecs(microScale())[0]

	var mu sync.Mutex
	var recs []RunRecord
	collect := func(r RunRecord) { mu.Lock(); recs = append(recs, r); mu.Unlock() }

	e1 := storedExec(t, dir, 2)
	e1.SetRecord(collect)
	e1.RunBatch([]runSpec{spec})
	e1.RunBatch([]runSpec{spec}) // memo hit: no record
	if len(recs) != 1 || recs[0].Cached || recs[0].Cycles == 0 ||
		recs[0].DurationMS <= 0 || recs[0].Key == "" ||
		!strings.Contains(recs[0].Label, "Baseline") {
		t.Fatalf("cold-run records = %+v, want one uncached record", recs)
	}

	recs = nil
	e2 := storedExec(t, dir, 2)
	e2.SetRecord(collect)
	e2.RunBatch([]runSpec{spec})
	if len(recs) != 1 || !recs[0].Cached || recs[0].Cycles == 0 {
		t.Fatalf("warm-run records = %+v, want one cached record", recs)
	}
	if e2.Runs() != 0 {
		t.Fatalf("warm run simulated %d times", e2.Runs())
	}
}

// TestPlannerDeclaresGrid: a planning session enumerates Figure 1's full
// grid (12 pairs x 3 periods x {baseline, flush} = 72 distinct specs)
// without simulating, and Plan transfers it to a real executor's
// denominator.
func TestPlannerDeclaresGrid(t *testing.T) {
	planner := NewPlanner()
	NewSessionWith(microScale(), planner).Figure1()
	if planner.Runs() != 0 {
		t.Fatalf("planner simulated %d times", planner.Runs())
	}
	e := NewExecutor(1)
	if got := e.Plan(planner); got != 72 {
		t.Fatalf("planned %d distinct specs, want 72", got)
	}
	if e.Planned() != 72 || e.CacheSize() != 0 {
		t.Fatalf("Planned/CacheSize = %d/%d, want 72/0", e.Planned(), e.CacheSize())
	}
}

// TestProgressCountsOverPlannedGrid: with a pre-declared plan, progress
// lines report done/total over the whole grid, not the current batch.
func TestProgressCountsOverPlannedGrid(t *testing.T) {
	planner := NewPlanner()
	scale := microScale()
	specs := testSpecs(scale)
	planner.RunBatch(specs)

	e := NewExecutor(1)
	var buf strings.Builder
	e.SetProgress(&buf)
	e.Plan(planner)
	e.RunBatch(specs[:1]) // first batch resolves 1 of the 3 planned
	out := buf.String()
	if !strings.Contains(out, "[run 1/3]") {
		t.Fatalf("progress not counted over the planned grid:\n%s", out)
	}
	if !strings.Contains(out, " eta ") {
		t.Fatalf("progress line missing ETA while backlog remains:\n%s", out)
	}
}

// TestProgressETAWarmRun: planning against a warm store must exclude
// store-resident cells from the ETA backlog. With every planned cell
// but one already stored, the single cold simulation's progress line
// reports the grid position with NO eta — the old throughput estimate
// extrapolated one sample over hundreds of cells that were about to
// replay in microseconds.
func TestProgressETAWarmRun(t *testing.T) {
	dir := t.TempDir()
	specs := testSpecs(microScale())
	storedExec(t, dir, 2).RunBatch(specs[1:]) // warm all but specs[0]

	planner := NewPlanner()
	planner.RunBatch(specs)

	e := storedExec(t, dir, 1)
	var buf strings.Builder
	e.SetProgress(&buf)
	e.Plan(planner)
	e.RunBatch(specs[:1]) // the one cold cell, first batch of the session
	out := buf.String()
	if !strings.Contains(out, "[run 1/3]") {
		t.Fatalf("cold cell not counted over the planned grid:\n%s", out)
	}
	if strings.Contains(out, " eta ") {
		t.Fatalf("warm run printed a bogus ETA over store-resident cells:\n%s", out)
	}
}

// TestProgressAllCacheHit: a fully warm run simulates nothing and must
// print no progress lines (and, trivially, no throughput estimate).
func TestProgressAllCacheHit(t *testing.T) {
	dir := t.TempDir()
	specs := testSpecs(microScale())
	storedExec(t, dir, 2).RunBatch(specs)

	planner := NewPlanner()
	planner.RunBatch(specs)
	e := storedExec(t, dir, 2)
	var buf strings.Builder
	e.SetProgress(&buf)
	e.Plan(planner)
	e.RunBatch(specs)
	if got := buf.String(); got != "" {
		t.Fatalf("all-hit warm run printed progress lines:\n%s", got)
	}
	if e.Runs() != 0 || e.Replays() != len(specs) {
		t.Fatalf("runs/replays = %d/%d, want 0/%d", e.Runs(), e.Replays(), len(specs))
	}
}

// TestProgressETAUnderShard: under a shard assignment, Plan leaves the
// other shards' planned cells out of the ETA's backlog, as it does the
// store-resident ones, without counting a cell that is both twice. With
// a throughput of one simulation per 10 s, the ETA reads 10 s per cell
// that shard 0 of 2 will simulate.
func TestProgressETAUnderShard(t *testing.T) {
	planner := NewPlanner()
	NewSessionWith(microScale(), planner).Figure1()
	keys := planner.PlannedKeys()
	st, err := runcache.Open(t.TempDir(), SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string]bool{}
	for _, dk := range keys[:len(keys)/4] {
		if err := st.Put(dk, wire.Result{}.Encode()); err != nil {
			t.Fatal(err)
		}
		stored[dk] = true
	}
	var own, ownCold int
	for _, dk := range keys {
		if shardOf(dk, 2) == 0 {
			own++
			if !stored[dk] {
				ownCold++
			}
		}
	}
	if own == 0 || own == len(keys) || ownCold == own {
		t.Fatalf("shard 0/2 owns %d of %d planned cells, %d of them cold; want a mix", own, len(keys), ownCold)
	}
	for _, c := range []struct {
		name  string
		store *runcache.Store
		want  int
	}{{"no store", nil, own}, {"store", st, ownCold}} {
		e := NewExecutor(1)
		e.SetShard(0, 2)
		if c.store != nil {
			e.SetStore(c.store)
		}
		e.Plan(planner)
		e.mu.Lock()
		e.simStart, e.simsDone = time.Now().Add(-10*time.Second), 1
		eta := e.etaLocked()
		e.mu.Unlock()
		if want := fmt.Sprintf(" eta %v", time.Duration(c.want)*10*time.Second); eta != want {
			t.Errorf("%s: etaLocked = %q, want %q (%d of %d planned cells simulate on shard 0/2)",
				c.name, eta, want, c.want, len(keys))
		}
	}
}

// TestPlannerPlannedKeys: PlannedKeys on a planner, called straight
// after its last batch, waits for the background hashing and returns
// the wire key of every distinct spec recorded, sorted.
func TestPlannerPlannedKeys(t *testing.T) {
	planner := plannedGrid()
	got := planner.PlannedKeys()
	want := make([]string, 0, len(planner.cells))
	for k := range planner.cells {
		want = append(want, specToWire(specOf(t, k)).Key())
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PlannedKeys returned %d keys, want the %d sorted wire keys of the planned specs",
			len(got), len(want))
	}
}

// TestPlannerLeavesNoGoroutines: the goroutines hashing a planner's
// batches exit once their batch is hashed, whether or not the planner
// is ever planned.
func TestPlannerLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	planner := NewPlanner()
	NewSessionWith(microScale(), planner).Figure1()
	NewSessionWith(microScale(), planner).Figure9()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after planning, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchemaVersionIsWireSchema: the engine's cache schema IS the wire
// schema — a bpserve worker, a sharded bpsim and a local run sharing a
// cache directory must agree on keys. (The version string's structure
// is asserted in the wire package's own tests.)
func TestSchemaVersionIsWireSchema(t *testing.T) {
	if SchemaVersion() != wire.SchemaVersion() {
		t.Fatalf("experiment schema %q != wire schema %q",
			SchemaVersion(), wire.SchemaVersion())
	}
}
