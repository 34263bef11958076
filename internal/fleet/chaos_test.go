package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

// TestPullSweepSurvivesFaults renders Figure 1 through a pull fleet
// while faults fire at the fleet's and the run cache's seams on a
// fixed schedule, and requires the serial render every time: a fault
// may cost retries, steals and re-simulations, never bytes.
//
//   - faults: two workers share one workerFaultStub that crashes a
//     worker at the 3rd CrashBatch decision, reports the 5th and 6th
//     completions twice and drops every 5th heartbeat. A third waits
//     two leases before each simulation (Throttle), so its batches
//     outlive the lease, and its own stub drops every 5th of its
//     heartbeats. A drop must cost one beat, never the lease: the
//     crashed batch is the only one that may lapse. The leader's store
//     flips a bit in its 4th record write, truncates the 8th and fails
//     the 12th as a full disk would. A reopen must quarantine the two
//     damaged records, and a warm render over it must re-simulate
//     exactly the three lost cells.
//   - restart: the leader dies at its 6th dispatch. A second leader on
//     the same cache directory must replay exactly the cells the first
//     one simulated and simulate only the remainder.
func TestPullSweepSurvivesFaults(t *testing.T) {
	scale, serial := simScale(), serialFigure1()
	render := func(t *testing.T, exec *experiment.Executor) string {
		t.Helper()
		out := experiment.NewSessionWith(scale, exec).Figure1().Render()
		if err := exec.Err(); err != nil {
			t.Fatalf("executor failed: %v", err)
		}
		return out
	}

	t.Run("faults", func(t *testing.T) {
		faults := &workerFaultStub{
			crash: schedule{at: []uint64{3}},
			drop:  schedule{every: 5},
			dup:   schedule{at: []uint64{5, 6}},
		}
		beats := &workerFaultStub{drop: schedule{every: 5}}
		starts := &startLog{by: make(map[string][]int)}
		q, leader, workers, stop := faultFleet(t, starts,
			faultWorker{faults: beats, slow: 2 * faultLease},
			faultWorker{faults: faults}, faultWorker{faults: faults})
		defer stop()
		dir := t.TempDir()
		st := openCache(t, dir)
		disk := &fileFaultStub{flipAt: 4, truncAt: 8, fullAt: 12}
		st.SetFileFault(disk)

		exec := experiment.NewExecutorWith(len(workers)*fleetSlots, leader.Backend())
		exec.SetStore(st)
		if render(t, exec) != serial {
			t.Fatal("render under worker and cache faults differs from serial")
		}

		if n := disk.writes.Load(); n < disk.fullAt {
			t.Fatalf("the store's fault hook saw %d record writes; the schedule damages the 4th, 8th and 12th", n)
		}
		var crashes uint64
		for _, w := range workers {
			crashes += w.Crashes()
		}
		stolen := q.Stats().Stolen
		if fired := faults.crash.fired.Load(); fired != 1 || crashes != 1 || stolen == 0 {
			t.Fatalf("crash fired %d times, workers crashed %d times, %d specs stolen; want 1, 1 and at least 1",
				fired, crashes, stolen)
		}
		// The last duplicate can still be in flight when the render
		// returns; give its worker a moment to post it.
		deadline := time.Now().Add(5 * time.Second)
		for q.Stats().Duplicates < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if fired, dups := faults.dup.fired.Load(), q.Stats().Duplicates; fired != 2 || dups < 2 {
			t.Fatalf("duplicate fired %d times and the queue counted %d duplicates; want 2 and at least 2", fired, dups)
		}
		// Heartbeats follow the wall clock, so how many were due varies;
		// each batch of the throttled worker makes dozens.
		t.Logf("dropped %d of %d heartbeats (throttled worker), %d of %d (the others)",
			beats.drop.fired.Load(), beats.drop.calls.Load(), faults.drop.fired.Load(), faults.drop.calls.Load())
		if beats.drop.fired.Load() == 0 {
			t.Fatalf("the throttled worker dropped none of its %d heartbeats", beats.drop.calls.Load())
		}
		// A lapsed lease hands its specs to a second worker while the
		// first still runs them. Only the crashed batch may lapse, so a
		// spec started twice must have started first on the crashed
		// worker: its specs in flight at the crash run on, and under the
		// race detector can outlive the lease.
		crashed := -1
		for i, w := range workers {
			if w.Crashes() > 0 {
				crashed = i
			}
		}
		starts.mu.Lock()
		for key, ws := range starts.by {
			if len(ws) > 1 && ws[0] != crashed {
				t.Errorf("spec %.12s started on worker %d, then on %v: a lease other than the crashed one lapsed", key, ws[0], ws[1:])
			}
		}
		starts.mu.Unlock()

		if got := st.Stats().PutErrors; got != 1 {
			t.Fatalf("%d put errors, want 1 (the full disk)", got)
		}
		reopened := openCache(t, dir)
		if got := reopened.Stats().Quarantined; got != 2 {
			t.Fatalf("reopen quarantined %d records, want 2 (the bit flip and the truncation)", got)
		}
		warm := experiment.NewExecutorWith(4, experiment.LocalBackend{})
		warm.SetStore(reopened)
		if render(t, warm) != serial {
			t.Fatal("warm render over the reopened store differs from serial")
		}
		if warm.Runs() != 3 {
			t.Fatalf("warm render simulated %d cells, want the 3 whose records were lost", warm.Runs())
		}
	})

	t.Run("restart", func(t *testing.T) {
		planner := experiment.NewPlanner()
		experiment.NewSessionWith(scale, planner).Figure1()
		planned := planner.Planned()
		dir := t.TempDir()

		// pass is one leader process on dir: it opens the cache afresh,
		// as a restarted process would, and dies at its dieAt-th
		// dispatch (0: never). A pool narrower than the grid leaves most
		// of the sweep behind the kill point.
		pass := func(dieAt uint64) (*experiment.Executor, string) {
			_, leader, _, stop := faultFleet(t, nil, faultWorker{}, faultWorker{}, faultWorker{})
			defer stop()
			var backend experiment.Backend = leader.Backend()
			if dieAt > 0 {
				backend = &dyingBackend{inner: backend, at: dieAt}
			}
			exec := experiment.NewExecutorWith(4, backend)
			exec.SetStore(openCache(t, dir))
			return exec, experiment.NewSessionWith(scale, exec).Figure1().Render()
		}

		first, _ := pass(6)
		runs1 := first.Runs()
		if first.Err() == nil || runs1 == 0 || int(runs1) >= planned {
			t.Fatalf("first leader: error %v after %d of %d cells; want it killed part-way", first.Err(), runs1, planned)
		}
		second, out := pass(0)
		if err := second.Err(); err != nil {
			t.Fatalf("restarted leader failed: %v", err)
		}
		if out != serial {
			t.Fatal("restarted leader's render differs from serial")
		}
		if second.Replays() != int(runs1) || int(second.Runs()) != planned-int(runs1) {
			t.Fatalf("restarted leader replayed %d and simulated %d cells; want the first leader's %d and the other %d",
				second.Replays(), second.Runs(), runs1, planned-int(runs1))
		}
	})
}

// fleetSlots is each fault-test worker's slot count and batch size.
const fleetSlots = 4

// faultLease is the fault test queue's lease.
const faultLease = 500 * time.Millisecond

// faultWorker arms one fault-test worker: with faults when they are
// not nil, and behind a Throttle of slow when it is positive.
type faultWorker struct {
	faults WorkerFaults
	slow   time.Duration
}

// faultFleet serves a fresh leader, whose queue leases for faultLease,
// to one pull worker of fleetSlots slots per arm. The workers sleep a
// tenth of each requested pause, so they beat every lease/30 instead
// of lease/3: under the race detector on a 2-CPU host, the beats
// around a dropped one landed a third of the lease late often enough
// that one drop lapsed a lease in 4 of 10 runs at lease/3, a delay
// DefaultLease absorbs. Each simulation start is logged in starts
// when it is not nil. stop ends the workers; the server closes when the
// test ends.
func faultFleet(t *testing.T, starts *startLog, arms ...faultWorker) (q *Queue, leader *Leader, workers []*PullWorker, stop func()) {
	t.Helper()
	q = NewQueue(faultLease, time.Now)
	leader = NewLeader(q, "")
	ts := httptest.NewServer(leader.Handler())
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workers = make([]*PullWorker, len(arms))
	for i, arm := range arms {
		var backend experiment.Backend = experiment.LocalBackend{}
		if arm.slow > 0 {
			backend = Throttle{Inner: backend, Delay: arm.slow}
		}
		if starts != nil {
			backend = loggedBackend{log: starts, worker: i, inner: backend}
		}
		w := NewPullWorker(addr, fmt.Sprintf("chaos-%d", i), backend, nil, fleetSlots, fleetSlots)
		if arm.faults != nil {
			w.SetFaults(arm.faults)
		}
		w.SetSleep(func(ctx context.Context, d time.Duration) error { return sleepWall(ctx, d/10) })
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	return q, leader, workers, func() {
		cancel()
		wg.Wait()
	}
}

// startLog records which workers started simulating each spec, by
// wire key, in start order.
type startLog struct {
	mu sync.Mutex
	by map[string][]int
}

// loggedBackend logs each simulation's start, then runs it on inner.
type loggedBackend struct {
	log    *startLog
	worker int
	inner  experiment.Backend
}

func (b loggedBackend) Run(ctx context.Context, spec wire.Spec) (wire.Result, error) {
	key := spec.Key()
	b.log.mu.Lock()
	b.log.by[key] = append(b.log.by[key], b.worker)
	b.log.mu.Unlock()
	return b.inner.Run(ctx, spec)
}

// openCache opens a run cache in dir under the current schema.
func openCache(t *testing.T, dir string) *runcache.Store {
	t.Helper()
	st, err := runcache.Open(dir, experiment.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fileFaultStub damages a store's record writes by number, counted
// from 1 across all writers: it flips a bit in write flipAt, cuts write
// truncAt to half its length and fails write fullAt as a full disk
// would.
type fileFaultStub struct {
	flipAt, truncAt, fullAt uint64
	writes                  atomic.Uint64
}

func (f *fileFaultStub) WriteEntry(_ string, raw []byte) ([]byte, error) {
	switch f.writes.Add(1) {
	case f.fullAt:
		return nil, errors.New("fileFaultStub: no space left on device")
	case f.truncAt:
		return append([]byte(nil), raw[:len(raw)/2]...), nil
	case f.flipAt:
		out := append([]byte(nil), raw...)
		out[len(out)/2] ^= 1
		return out, nil
	}
	return raw, nil
}

// dyingBackend stands for a leader process killed at its at-th
// dispatch: that dispatch and every later one fail.
type dyingBackend struct {
	inner      experiment.Backend
	at         uint64
	dispatches atomic.Uint64
}

func (d *dyingBackend) Run(ctx context.Context, spec wire.Spec) (wire.Result, error) {
	if d.dispatches.Add(1) >= d.at {
		return wire.Result{}, errors.New("leader killed")
	}
	return d.inner.Run(ctx, spec)
}
