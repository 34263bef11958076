package secsweep_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xorbp/internal/attack"
	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/runcache"
	"xorbp/internal/secsweep"
	"xorbp/internal/wire"
)

// testConfig is a miniature sweep: structurally complete, seconds-fast.
func testConfig() secsweep.Config {
	return secsweep.Config{
		Attack:       attack.Config{Iterations: 100, Attempts: 20, Trials: 160, Seed: 3},
		RekeyPeriods: []uint64{1, 16},
		Predictors:   []string{"", "perceptron"},
		Batches:      2,
	}
}

// renderAll renders the full sweep through an executor and joins the
// tables — the byte string every determinism test compares.
func renderAll(t *testing.T, exec *experiment.Executor) string {
	t.Helper()
	var b strings.Builder
	for _, tab := range secsweep.New(testConfig(), exec).Tables() {
		b.WriteString(tab.Render())
		b.WriteByte('\n')
	}
	if err := exec.Err(); err != nil {
		t.Fatalf("executor poisoned: %v", err)
	}
	return b.String()
}

// TestSerialEqualsParallel: the sweep's tables are byte-identical for
// every worker count — outcomes are pure functions of their specs and
// batch merging is ordered integer addition.
func TestSerialEqualsParallel(t *testing.T) {
	serial := renderAll(t, experiment.NewExecutor(1))
	parallel := renderAll(t, experiment.NewExecutor(8))
	if serial != parallel {
		t.Fatalf("parallel sweep differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "attack success matrix") ||
		!strings.Contains(serial, "re-key/flush period") ||
		!strings.Contains(serial, "Table 1") {
		t.Fatal("sweep output is missing a table")
	}
}

// TestDistributedMatchesSerial: the same sweep through a loopback pull
// fleet — a queue leader and two claiming workers, a full wire
// round-trip for every attack job — renders the same bytes.
func TestDistributedMatchesSerial(t *testing.T) {
	serial := renderAll(t, experiment.NewExecutor(1))

	leader := fleet.NewLeader(fleet.NewQueue(0, time.Now), "")
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	ctx, cancel := context.WithCancel(t.Context())
	var wg sync.WaitGroup
	workers := make([]*fleet.PullWorker, 2)
	for i := range workers {
		w := fleet.NewPullWorker(addr, fmt.Sprintf("w%d", i), experiment.LocalBackend{}, nil, 0, 2)
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	remote := renderAll(t, experiment.NewExecutorWith(4, leader.Backend()))
	cancel()
	wg.Wait()
	if serial != remote {
		t.Fatalf("distributed sweep differs from serial:\n--- serial ---\n%s\n--- remote ---\n%s",
			serial, remote)
	}
	if workers[0].Runs()+workers[1].Runs() == 0 {
		t.Fatal("no attack jobs reached the workers")
	}
}

// TestWarmCacheSimulatesZero: a second sweep over the same persistent
// store replays every attack cell and simulates nothing — the
// incremental-sweep property the performance grids already have.
func TestWarmCacheSimulatesZero(t *testing.T) {
	dir := t.TempDir()
	st, err := runcache.Open(dir, wire.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	cold := experiment.NewExecutor(4)
	cold.SetStore(st)
	first := renderAll(t, cold)
	if cold.Runs() == 0 {
		t.Fatal("cold sweep simulated nothing")
	}

	st2, err := runcache.Open(dir, wire.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	warm := experiment.NewExecutor(4)
	warm.SetStore(st2)
	second := renderAll(t, warm)
	if got := warm.Runs(); got != 0 {
		t.Fatalf("warm sweep executed %d attack simulations, want 0", got)
	}
	if warm.Replays() == 0 {
		t.Fatal("warm sweep replayed nothing")
	}
	if first != second {
		t.Fatalf("warm sweep differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", first, second)
	}
}

// TestShardsPartitionTheSweep: two sharded executors over one store
// split the attack grid exactly; an unsharded run afterwards replays
// the union without simulating and renders the serial bytes.
func TestShardsPartitionTheSweep(t *testing.T) {
	serial := renderAll(t, experiment.NewExecutor(1))

	dir := t.TempDir()
	var shardRuns uint64
	for i := 0; i < 2; i++ {
		st, err := runcache.Open(dir, wire.SchemaVersion())
		if err != nil {
			t.Fatal(err)
		}
		e := experiment.NewExecutor(4)
		e.SetStore(st)
		e.SetShard(i, 2)
		renderAll(t, e)
		if e.Runs() == 0 {
			t.Fatalf("shard %d simulated nothing", i)
		}
		shardRuns += e.Runs()
	}
	st, err := runcache.Open(dir, wire.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	merge := experiment.NewExecutor(4)
	merge.SetStore(st)
	merged := renderAll(t, merge)
	if got := merge.Runs(); got != 0 {
		t.Fatalf("merge run executed %d simulations, want 0 (shards did not partition)", got)
	}
	ref := experiment.NewExecutor(1)
	renderAll(t, ref)
	if shardRuns != ref.Runs() {
		t.Fatalf("shard runs sum to %d, serial executed %d", shardRuns, ref.Runs())
	}
	if merged != serial {
		t.Fatalf("merged sweep differs from serial:\n--- serial ---\n%s\n--- merged ---\n%s",
			serial, merged)
	}
}

// TestVerdictsReproduceTable1: the engine-rendered verdict table is the
// paper's Table 1, byte for byte — same measurements, same classifier.
func TestVerdictsReproduceTable1(t *testing.T) {
	cfg := testConfig()
	direct := attack.Table1(cfg.Attack).Render()
	viaEngine := secsweep.New(cfg, experiment.NewExecutor(4)).Verdicts().Render()
	if direct != viaEngine {
		t.Fatalf("engine verdicts differ from attack.Table1:\n--- direct ---\n%s\n--- engine ---\n%s",
			direct, viaEngine)
	}
}

// TestPlannerCoversTheSweep: a dry render through a planning executor
// declares every cell the real render resolves — the mechanism behind
// session-wide progress/ETA in attacksim.
func TestPlannerCoversTheSweep(t *testing.T) {
	planner := experiment.NewPlanner()
	renderAll(t, planner)
	exec := experiment.NewExecutor(4)
	planned := exec.Plan(planner)
	if planned == 0 {
		t.Fatal("planner recorded no attack cells")
	}
	renderAll(t, exec)
	if got := exec.Planned(); got != planned {
		t.Fatalf("real sweep grew the plan: %d planned, %d after running", planned, got)
	}
	if exec.CacheSize() != planned {
		t.Fatalf("resolved %d of %d planned cells", exec.CacheSize(), planned)
	}
}

// TestMatrixSeparatesMechanisms: sanity on the measured numbers — the
// baseline row must show the BTB-training channel wide open and the
// Noisy-XOR row must close it.
func TestMatrixSeparatesMechanisms(t *testing.T) {
	tab := secsweep.New(testConfig(), experiment.NewExecutor(4)).Matrix(attack.SingleThreaded)
	col := -1
	for i, h := range tab.Header {
		if h == "btb_training" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no btb_training column in %v", tab.Header)
	}
	var baseRate, nxorRate string
	for _, row := range tab.Rows {
		switch row[0] {
		case "Baseline":
			baseRate = row[col]
		case "Noisy-XOR-BP":
			nxorRate = row[col]
		}
	}
	if pctOf(t, baseRate) < 90 {
		t.Fatalf("baseline BTB training = %s, want ~96%%", baseRate)
	}
	if pctOf(t, nxorRate) > 3 {
		t.Fatalf("Noisy-XOR BTB training = %s, want ~0%% (channel noise only)", nxorRate)
	}
}

// pctOf parses a rendered "%.1f%%" cell.
func pctOf(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(cell, "%f%%", &v); err != nil {
		t.Fatalf("unparseable rate cell %q: %v", cell, err)
	}
	return v
}
