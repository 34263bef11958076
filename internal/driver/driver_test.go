package driver

import (
	"context"
	"strings"
	"testing"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
)

func TestParseShardUnsharded(t *testing.T) {
	i, n := ParseShard("test", "", false)
	if i != 0 || n != 1 {
		t.Fatalf("unsharded = %d/%d, want 0/1", i, n)
	}
}

func TestConnectLocal(t *testing.T) {
	conn := Connect(ConnectOptions{Prog: "test", Workers: 7, WorkersSet: true})
	defer conn.Close()
	if conn.Backend != nil {
		t.Fatal("local connect returned a remote backend")
	}
	if conn.PoolSize != 7 || conn.Name != "local" {
		t.Fatalf("local connect = (%d, %q), want (7, local)", conn.PoolSize, conn.Name)
	}
	if conn.WorkerCached() != 0 || conn.Queue() != nil {
		t.Fatalf("local conn carries fleet state: worker-cached %d", conn.WorkerCached())
	}
}

func TestSummarize(t *testing.T) {
	exec := experiment.NewExecutor(2)
	conn := &Conn{Name: "local"}
	rec := Summarize(exec, conn, 1, 4, time.Now().Add(-time.Second))
	if rec.Type != "summary" || rec.Backend != "local" || rec.Workers != 2 {
		t.Fatalf("summary = %+v", rec)
	}
	if rec.Shard != "1/4" {
		t.Fatalf("shard = %q, want 1/4", rec.Shard)
	}
	if rec.WallMS < 900 {
		t.Fatalf("wall = %vms, want ~1000", rec.WallMS)
	}
	if rec = Summarize(exec, conn, 0, 1, time.Now()); rec.Shard != "" {
		t.Fatalf("unsharded summary carries shard %q", rec.Shard)
	}
}

func TestShardProgressReportsDeltas(t *testing.T) {
	// The executor's counters are session-cumulative; successive lines
	// must attribute only each experiment's own cells.
	exec := experiment.NewExecutor(1)
	var p ShardProgress
	first := p.Line(exec, 0, 2, "alpha")
	if !strings.Contains(first, "alpha: 0 resolved, 0 skipped") {
		t.Fatalf("first line = %q", first)
	}
	p.prevDone, p.prevSkipped = 0, 0 // baseline
	p2 := ShardProgress{prevDone: 3, prevSkipped: 1}
	line := p2.Line(exec, 0, 2, "beta")
	if !strings.Contains(line, "beta: -3 resolved, -1 skipped") {
		// A synthetic negative delta proves the subtraction happens; real
		// executors only grow.
		t.Fatalf("delta line = %q", line)
	}
}

// TestConnectPullMatchesSerial: the -fleet topology end to end. Connect
// starts a pull-queue leader, a worker claims from its address, and
// Figure 1 rendered through the connection is byte-identical to the
// serial render, because every simulation is a pure function of its
// canonical spec.
func TestConnectPullMatchesSerial(t *testing.T) {
	scale := experiment.MicroScale()
	if testing.Short() {
		scale.WarmupInstr /= 4
		scale.MeasureInstr /= 4
		scale.SMTWarmupInstr /= 4
		scale.SMTMeasureInstr /= 4
		for i := range scale.TimerPeriods {
			scale.TimerPeriods[i] /= 4
		}
	}
	serial := experiment.NewSessionWith(scale, experiment.NewExecutor(1)).Figure1().Render()

	addr, lease, none := "127.0.0.1:0", fleet.DefaultLease, ""
	conn := Connect(ConnectOptions{Prog: "test",
		Fleet: &FleetFlags{Fleet: &addr, Lease: &lease, TLSCert: &none, TLSKey: &none}})
	defer conn.Close()
	if conn.Backend == nil || conn.Name != "pull" ||
		conn.PoolSize != defaultFleetPool || conn.Queue() == nil || conn.Addr == "" {
		t.Fatalf("fleet connect = (%q, pool %d, addr %q), want a pull leader",
			conn.Name, conn.PoolSize, conn.Addr)
	}

	w := fleet.NewPullWorker(conn.Addr, "w0", experiment.LocalBackend{}, nil, 0, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	exec := experiment.NewExecutorWith(conn.PoolSize, conn.Backend)
	pull := experiment.NewSessionWith(scale, exec).Figure1().Render()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if serial != pull {
		t.Fatalf("pull Figure 1 differs from serial:\n--- serial ---\n%s\n--- pull ---\n%s",
			serial, pull)
	}
	if err := exec.Err(); err != nil {
		t.Fatalf("pull executor poisoned: %v", err)
	}
	if w.Runs() == 0 || uint64(conn.Queue().Stats().Done) != w.Runs() {
		t.Fatalf("worker simulated %d specs, queue completed %d — the fleet path was not exercised",
			w.Runs(), conn.Queue().Stats().Done)
	}
}
