package fleet

import (
	"bytes"
	"context"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/experiment"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

// simScale is MicroScale, shrunk a further 4x under -short (ratios
// preserved) so the race-enabled CI loop stays fast.
func simScale() experiment.Scale {
	s := experiment.MicroScale()
	if testing.Short() {
		s.WarmupInstr /= 4
		s.MeasureInstr /= 4
		s.SMTWarmupInstr /= 4
		s.SMTMeasureInstr /= 4
		for i := range s.TimerPeriods {
			s.TimerPeriods[i] /= 4
		}
	}
	return s
}

// simSpec builds a real runnable spec (unlike qspec, which only the
// queue's key function ever touches); i varies the timer period so
// each spec is distinct.
func simSpec(i int) wire.Spec {
	o := core.OptionsFor(core.Baseline).Normalized()
	spec := wire.Spec{
		Opts:      o,
		Codec:     o.Codec.Name(),
		Scrambler: o.Scrambler.Name(),
		Pred:      "tage",
		Cfg:       cpu.FPGAConfig(),
		Timer:     uint64(50_000 + 1000*i),
		Threads:   []string{"gcc", "calculix"},
		Scale:     simScale(),
	}
	spec.Opts.Codec, spec.Opts.Scrambler = nil, nil
	return spec
}

// startLeader exposes a queue over the real HTTP protocol and returns
// the host:port a bpserve -pull worker would be pointed at.
func startLeader(t *testing.T, q *Queue) string {
	t.Helper()
	ts := httptest.NewServer(NewLeader(q, "").Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// serialFigure1 renders Figure 1 at simScale() on one local worker,
// once per test binary: the reference every fleet render of the figure
// must match byte for byte.
var serialFigure1 = sync.OnceValue(func() string {
	return experiment.NewSessionWith(simScale(), experiment.NewExecutor(1)).Figure1().Render()
})

// serialResult runs one spec on the local backend, bypassing the fleet
// entirely — the reference every fleet execution must match byte for
// byte.
func serialResult(t *testing.T, spec wire.Spec) wire.Result {
	t.Helper()
	res, err := experiment.LocalBackend{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPullMatchesSerial is the fleet's core guarantee: a figure
// rendered through a pull-queue leader with two claiming workers is
// byte-identical to the serial render, because dispatch order, worker
// identity, and batch boundaries never touch the results. The
// throttled case slows one worker behind fleet.Throttle (bpserve
// -slow), so the fast worker claims most of the grid.
func TestPullMatchesSerial(t *testing.T) {
	scale, serial := simScale(), serialFigure1()

	for _, tc := range []struct {
		name string
		slow time.Duration // the second worker's delay before each simulation
	}{
		{"uniform", 0},
		{"throttled", 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue(0, time.Now)
			leader := NewLeader(q, "")
			ts := httptest.NewServer(leader.Handler())
			t.Cleanup(ts.Close)
			addr := strings.TrimPrefix(ts.URL, "http://")

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			workers := make([]*PullWorker, 2)
			for i := range workers {
				var backend experiment.Backend = experiment.LocalBackend{}
				if i == 1 && tc.slow > 0 {
					backend = Throttle{Inner: backend, Delay: tc.slow}
				}
				w := NewPullWorker(addr, fmt.Sprintf("w%d", i), backend, nil, 0, 2)
				workers[i] = w
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := w.Run(ctx); err != nil {
						t.Errorf("worker: %v", err)
					}
				}()
			}

			exec := experiment.NewExecutorWith(4, leader.Backend())
			pull := experiment.NewSessionWith(scale, exec).Figure1().Render()
			cancel()
			wg.Wait()

			if serial != pull {
				t.Fatalf("pull Figure 1 differs from serial:\n--- serial ---\n%s\n--- pull ---\n%s",
					serial, pull)
			}
			if err := exec.Err(); err != nil {
				t.Fatalf("pull executor poisoned: %v", err)
			}
			st := q.Stats()
			if st.Done == 0 || st.Done != st.Submitted {
				t.Fatalf("queue did not drain: %+v", st)
			}
			if int(workers[0].Runs()+workers[1].Runs()) != st.Done {
				t.Fatalf("workers simulated %d+%d specs, queue completed %d",
					workers[0].Runs(), workers[1].Runs(), st.Done)
			}
			t.Logf("workers simulated %d and %d specs", workers[0].Runs(), workers[1].Runs())
		})
	}
}

// blockBackend parks every Run until the worker's context dies —
// the stand-in for a wedged or crashed worker process. Each Run first
// announces itself on entered.
type blockBackend struct{ entered chan struct{} }

func (b blockBackend) Run(ctx context.Context, _ wire.Spec) (experiment.RunResult, error) {
	b.entered <- struct{}{}
	<-ctx.Done()
	return wire.Result{}, ctx.Err()
}

// TestPullWorkStealing kills a worker mid-batch and checks the fleet's
// recovery story end to end over real HTTP: the lease expires, a
// second worker steals the whole batch, the merged results are
// byte-identical to serial, and no spec lands in the cache twice.
func TestPullWorkStealing(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(10*time.Second, clk.Now)
	addr := startLeader(t, q)

	const n = 4
	var resc [n]<-chan wire.Result
	var errc [n]<-chan error
	for i := 0; i < n; i++ {
		resc[i], errc[i] = submitAsync(q, simSpec(i))
	}
	waitPending(t, q, n)

	// The doomed worker claims the whole batch and wedges. Its sleeper
	// blocks forever, so it never heartbeats — exactly a hung process.
	ctxA, killA := context.WithCancel(context.Background())
	bb := blockBackend{entered: make(chan struct{}, n)}
	doomed := NewPullWorker(addr, "doomed", bb, nil, n, n)
	doomed.SetSleep(func(ctx context.Context, _ time.Duration) error {
		<-ctx.Done()
		return ctx.Err()
	})
	aDone := make(chan error, 1)
	go func() { aDone <- doomed.Run(ctxA) }()

	// Kill only once every spec is inside the backend: one still on its
	// way in would be nacked on cancel instead of sitting out the lease.
	for i := 0; i < n; i++ {
		select {
		case <-bb.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("doomed worker started %d of %d specs: %+v", i, n, q.Stats())
		}
	}

	killA()
	if err := <-aDone; err != nil {
		t.Fatalf("killed worker returned %v, want nil", err)
	}
	if doomed.Runs() != 0 {
		t.Fatalf("doomed worker claims %d completed runs", doomed.Runs())
	}
	clk.Advance(11 * time.Second)

	// The successor steals the expired lease and finishes the job,
	// writing each spec into the shared cache exactly once.
	st, err := runcache.Open(t.TempDir(), wire.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	ctxB, stopB := context.WithCancel(context.Background())
	defer stopB()
	thief := NewPullWorker(addr, "thief", experiment.LocalBackend{}, st, n, 2)
	bDone := make(chan error, 1)
	go func() { bDone <- thief.Run(ctxB) }()

	for i := 0; i < n; i++ {
		if err := <-errc[i]; err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		got := <-resc[i]
		want := serialResult(t, simSpec(i))
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("spec %d: stolen result differs from serial:\n%s\nvs\n%s",
				i, got.Encode(), want.Encode())
		}
	}
	stopB()
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}

	stats := q.Stats()
	if stats.Stolen != n {
		t.Fatalf("stats.Stolen = %d, want %d (%+v)", stats.Stolen, n, stats)
	}
	if thief.Runs() != n {
		t.Fatalf("thief simulated %d specs, want %d", thief.Runs(), n)
	}
	if st.Len() != n {
		t.Fatalf("cache holds %d entries for %d distinct specs — a spec was simulated twice into the cache", st.Len(), n)
	}
}

// gatedBackend signals when its first simulation starts and holds it
// until the gate opens, then behaves like the local backend.
type gatedBackend struct {
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedBackend) Run(ctx context.Context, spec wire.Spec) (experiment.RunResult, error) {
	g.once.Do(func() { close(g.started) })
	select {
	case <-g.gate:
	case <-ctx.Done():
		return wire.Result{}, ctx.Err()
	}
	return experiment.LocalBackend{}.Run(ctx, spec)
}

// TestPullDrainNacks is the graceful-shutdown contract: a draining
// worker finishes the spec it already started, nacks the unstarted
// remainder back to the leader immediately (no lease-expiry wait), and
// a successor picks them up — results still byte-identical to serial.
func TestPullDrainNacks(t *testing.T) {
	q := NewQueue(0, time.Now)
	addr := startLeader(t, q)

	const n = 4
	var resc [n]<-chan wire.Result
	var errc [n]<-chan error
	for i := 0; i < n; i++ {
		resc[i], errc[i] = submitAsync(q, simSpec(i))
	}
	waitPending(t, q, n)

	gb := &gatedBackend{started: make(chan struct{}), gate: make(chan struct{})}
	w := NewPullWorker(addr, "drainer", gb, nil, n, 1)
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	<-gb.started // one spec is mid-simulation; three are unstarted
	w.Drain()    // the SIGTERM path: stop claiming, finish, hand back
	close(gb.gate)
	if err := <-done; err != nil {
		t.Fatalf("draining worker returned %v, want nil", err)
	}
	if w.Runs() != 1 || w.Nacked() != n-1 {
		t.Fatalf("drainer ran %d and nacked %d, want 1 and %d", w.Runs(), w.Nacked(), n-1)
	}
	if st := q.Stats(); st.Nacked != n-1 || st.Pending != n-1 || st.Leased != 0 {
		t.Fatalf("queue after drain: %+v", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	successor := NewPullWorker(addr, "successor", experiment.LocalBackend{}, nil, n, 2)
	sDone := make(chan error, 1)
	go func() { sDone <- successor.Run(ctx) }()

	for i := 0; i < n; i++ {
		if err := <-errc[i]; err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		got := <-resc[i]
		want := serialResult(t, simSpec(i))
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("spec %d: drained+resumed result differs from serial", i)
		}
	}
	cancel()
	if err := <-sDone; err != nil {
		t.Fatal(err)
	}
	if successor.Runs() != n-1 {
		t.Fatalf("successor simulated %d specs, want the %d nacked ones", successor.Runs(), n-1)
	}
}

// schedule fires a fault at fixed 1-based decision points: each one
// listed in at, and every every-th one. It counts the points it has
// seen and the faults it fired, and is safe for concurrent use.
type schedule struct {
	at    []uint64
	every uint64

	calls, fired atomic.Uint64
}

// hit consumes one decision point and reports whether the fault fires
// there.
func (s *schedule) hit() bool {
	n := s.calls.Add(1)
	if !slices.Contains(s.at, n) && (s.every == 0 || n%s.every != 0) {
		return false
	}
	s.fired.Add(1)
	return true
}

// workerFaultStub drives PullWorker's fault hooks, one schedule per
// hook; a zero schedule never fires.
type workerFaultStub struct {
	crash, drop, dup schedule
}

func (f *workerFaultStub) CrashBatch() bool        { return f.crash.hit() }
func (f *workerFaultStub) DropHeartbeat() bool     { return f.drop.hit() }
func (f *workerFaultStub) DuplicateComplete() bool { return f.dup.hit() }

// TestPullWorkerCrashFaultAbandonsBatch: an injected mid-batch crash
// abandons the whole claimed batch — nothing completed, nothing nacked —
// and once the lease lapses the same (restarted) worker steals it back
// and finishes, results byte-identical to serial.
func TestPullWorkerCrashFaultAbandonsBatch(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(10*time.Second, clk.Now)
	addr := startLeader(t, q)

	const n = 2
	var resc [n]<-chan wire.Result
	var errc [n]<-chan error
	for i := 0; i < n; i++ {
		resc[i], errc[i] = submitAsync(q, simSpec(i))
	}
	waitPending(t, q, n)

	faults := &workerFaultStub{crash: schedule{at: []uint64{1}}}
	w := NewPullWorker(addr, "crashy", experiment.LocalBackend{}, nil, n, 1)
	w.SetFaults(faults)
	w.SetSleep(func(ctx context.Context, _ time.Duration) error { return ctx.Err() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Wait for the injected crash, then let the lease lapse so the
	// worker's next claim steals its own abandoned batch.
	deadline := time.Now().Add(5 * time.Second)
	for w.Crashes() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("crash fault never fired: %+v", q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if w.Runs() != 0 {
		t.Fatalf("crashed worker completed %d specs, want 0", w.Runs())
	}
	clk.Advance(11 * time.Second)
	// No event announces the expiry; this Stats call reclaims the lease
	// and wakes the worker's held claim rather than leaving the steal to
	// its next claim round.
	q.Stats()

	for i := 0; i < n; i++ {
		if err := <-errc[i]; err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		got := <-resc[i]
		want := serialResult(t, simSpec(i))
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("spec %d: post-crash result differs from serial", i)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.Crashes() != 1 || w.Runs() != n {
		t.Fatalf("crashes = %d, runs = %d; want 1 and %d", w.Crashes(), w.Runs(), n)
	}
	if st := q.Stats(); st.Stolen != n || st.Nacked != 0 {
		t.Fatalf("queue after crash recovery: %+v, want %d stolen and nothing nacked", st, n)
	}
}

// TestPullWorkerDuplicateCompletesDropped: a worker that reports every
// completion twice exercises the queue's first-wins idempotency — all
// specs resolve once, the extras are counted and dropped.
func TestPullWorkerDuplicateCompletesDropped(t *testing.T) {
	q := NewQueue(0, time.Now)
	addr := startLeader(t, q)

	const n = 2
	var resc [n]<-chan wire.Result
	var errc [n]<-chan error
	for i := 0; i < n; i++ {
		resc[i], errc[i] = submitAsync(q, simSpec(i))
	}
	waitPending(t, q, n)

	w := NewPullWorker(addr, "stutter", experiment.LocalBackend{}, nil, n, 1)
	w.SetFaults(&workerFaultStub{dup: schedule{every: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	for i := 0; i < n; i++ {
		if err := <-errc[i]; err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		<-resc[i]
	}
	// The last spec's duplicate completion may still be in flight when
	// its submitter returns; give the worker a moment to post it.
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Duplicates < n {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Done != n || st.Duplicates != n {
		t.Fatalf("queue stats = %+v, want %d done and %d duplicates dropped", st, n, n)
	}
}

// TestClaimSchemaMismatch covers both halves of the schema handshake:
// the leader 409s a claim from a worker on another schema, and a worker
// receiving that 409 stops for good instead of retrying forever.
func TestClaimSchemaMismatch(t *testing.T) {
	// Leader side: a real leader refuses a mismatched ClaimRequest.
	q := NewQueue(0, time.Now)
	addr := startLeader(t, q)
	body, _ := json.Marshal(ClaimRequest{Worker: "w9", Schema: "bogus-schema/0"})
	resp, err := http.Post("http://"+addr+"/queue/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched claim got %s, want 409", resp.Status)
	}

	// Worker side: a 409 from the leader is fatal — one request, a
	// clear error, no retry loop.
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(wire.Error{Error: "worker w9 runs schema \"a\", this leader \"b\" — rebuild one side"})
	}))
	t.Cleanup(ts.Close)
	w := NewPullWorker(strings.TrimPrefix(ts.URL, "http://"), "w9", experiment.LocalBackend{}, nil, 1, 1)
	w.SetSleep(func(ctx context.Context, _ time.Duration) error { return ctx.Err() })
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "rebuild one side") {
		t.Fatalf("worker returned %v, want the leader's rebuild-one-side error", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("worker retried a fatal 409 (%d requests)", hits.Load())
	}
}

// TestPullLeaderRestartWorkerRejoins: the leader process dies and comes
// back on the same address with a fresh queue (as a leader rerun on its
// run cache does); a running worker rides out the outage on its retry
// loop and picks up the resubmitted work without being restarted itself.
func TestPullLeaderRestartWorkerRejoins(t *testing.T) {
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	q1 := NewQueue(0, time.Now)
	srv1 := &http.Server{Handler: NewLeader(q1, "").Handler()}
	go func() { _ = srv1.Serve(l1) }()

	const n = 2
	collect := func(q *Queue, base int) {
		t.Helper()
		var resc [n]<-chan wire.Result
		var errc [n]<-chan error
		for i := 0; i < n; i++ {
			resc[i], errc[i] = submitAsync(q, simSpec(base+i))
		}
		for i := 0; i < n; i++ {
			if err := <-errc[i]; err != nil {
				t.Fatalf("spec %d: %v", base+i, err)
			}
			got := <-resc[i]
			want := serialResult(t, simSpec(base+i))
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Fatalf("spec %d: fleet result differs from serial", base+i)
			}
		}
	}

	w := NewPullWorker(addr, "survivor", experiment.LocalBackend{}, nil, n, 1)
	w.SetSleep(func(ctx context.Context, _ time.Duration) error { return ctx.Err() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	collect(q1, 0)
	_ = srv1.Close() // the leader dies; the worker starts seeing claim errors

	// A recovered leader binds the same address with a rebuilt queue.
	var l2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	q2 := NewQueue(0, time.Now)
	srv2 := &http.Server{Handler: NewLeader(q2, "").Handler()}
	t.Cleanup(func() { _ = srv2.Close() })
	go func() { _ = srv2.Serve(l2) }()

	collect(q2, n)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker did not survive the leader restart: %v", err)
	}
	if w.Runs() != 2*n {
		t.Fatalf("worker simulated %d specs across the restart, want %d", w.Runs(), 2*n)
	}
}

// TestPollWaitJitter: the pause before retrying a failed claim is
// jittered from a stream seeded by worker id — reproducible per worker,
// different across workers, and always within
// [idleWait/2, 3*idleWait/2).
func TestPollWaitJitter(t *testing.T) {
	mk := func(id string) *PullWorker {
		return NewPullWorker("127.0.0.1:0", id, experiment.LocalBackend{}, nil, 1, 1)
	}
	a, b, c := mk("w0"), mk("w0"), mk("w1")
	same, allSame := true, true
	for i := 0; i < 32; i++ {
		wa, wb, wc := a.pollWait(), b.pollWait(), c.pollWait()
		if wa != wb {
			same = false
		}
		if wa != wc {
			allSame = false
		}
		for _, d := range []time.Duration{wa, wc} {
			if d < idleWait/2 || d >= idleWait/2+idleWait {
				t.Fatalf("pollWait() = %v, outside [idleWait/2, 3*idleWait/2)", d)
			}
		}
	}
	if !same {
		t.Fatal("two workers with the same id jitter differently")
	}
	if allSame {
		t.Fatal("workers w0 and w1 share an identical 32-retry jitter sequence")
	}
}

// echoBackend answers every spec at once with its timer as the cycle
// count: a stand-in simulator for protocol tests.
type echoBackend struct{}

func (echoBackend) Run(_ context.Context, spec wire.Spec) (experiment.RunResult, error) {
	return wire.Result{Cycles: spec.Timer}, nil
}

// waitWorkers spins until want distinct workers have claimed from q.
func waitWorkers(t *testing.T, q *Queue, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Workers < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers never claimed (stats %+v)", want, q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPullLongPollClaim: a worker claiming from an empty queue is
// answered by a spec submitted after its claim, with no sleep between
// claims, and Drain stops an idle worker within the leader's hold.
func TestPullLongPollClaim(t *testing.T) {
	q := NewQueue(0, time.Now)
	addr := startLeader(t, q)
	// With a live leader the only sleep is the heartbeat pause inside a
	// batch; an empty claim must go straight back to the leader.
	noIdleSleep := func(ctx context.Context, d time.Duration) error {
		if d != q.Lease()/3 {
			t.Errorf("worker slept %v outside the heartbeat loop", d)
		}
		<-ctx.Done()
		return ctx.Err()
	}
	start := func(id string) (*PullWorker, <-chan error) {
		w := NewPullWorker(addr, id, echoBackend{}, nil, 1, 1)
		w.SetSleep(noIdleSleep)
		done := make(chan error, 1)
		go func() { done <- w.Run(context.Background()) }()
		return w, done
	}

	poller, pollerDone := start("poller")
	waitWorkers(t, q, 1)
	resc, errc := submitAsync(q, qspec(0))
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if res := <-resc; res.Cycles != qspec(0).Timer {
		t.Fatalf("spec resolved with cycles %d, want %d", res.Cycles, qspec(0).Timer)
	}
	if poller.Claims() != 1 || poller.Runs() != 1 {
		t.Fatalf("poller made %d claims and %d runs, want 1 and 1", poller.Claims(), poller.Runs())
	}

	// A second worker that never gets work is idle inside a held claim.
	idler, idlerDone := start("idler")
	waitWorkers(t, q, 2)
	for _, w := range []*PullWorker{idler, poller} {
		w.Drain()
	}
	for _, done := range []<-chan error{idlerDone, pollerDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drained worker returned %v, want nil", err)
			}
		case <-time.After(idleWait + time.Second):
			t.Fatal("idle worker did not stop within the hold bound after Drain")
		}
	}
}

// TestLeaderCloseCutsHeldClaim: closing the leader's server ends a held
// claim at once, so shutdown never waits out the hold.
func TestLeaderCloseCutsHeldClaim(t *testing.T) {
	q := NewQueue(0, time.Now)
	leader := NewLeader(q, "").Handler()
	exited := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(exited)
		leader.ServeHTTP(w, r)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	claimed := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(ClaimRequest{Worker: "held"})
		resp, err := http.Post("http://"+ln.Addr().String()+"/queue/claim", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		claimed <- err
	}()
	waitWorkers(t, q, 1)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(idleWait / 2):
		t.Fatal("held claim outlived the leader's Close")
	}
	if err := <-claimed; err == nil {
		t.Fatal("claim cut by Close still got a response")
	}
}

// TestPullWorkersReuseConnections: a worker reads every leader reply to
// its end, so net/http keeps the connection alive and a sweep costs each
// worker a few connections, not one per completed spec.
func TestPullWorkersReuseConnections(t *testing.T) {
	q := NewQueue(0, time.Now)
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(NewLeader(q, "").Handler())
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers, specs = 2, 100
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := NewPullWorker(addr, fmt.Sprintf("w%d", i), echoBackend{}, nil, 1, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	var subs sync.WaitGroup
	for i := 0; i < specs; i++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			if _, _, err := q.Submit(context.Background(), qspec(i)); err != nil {
				t.Error(err)
			}
		}()
	}
	subs.Wait()
	n := opened.Load() // before cancel, which cuts the workers' held claims
	cancel()
	wg.Wait()
	if n > 3*workers {
		t.Fatalf("leader saw %d new connections for %d specs from %d workers, want at most %d",
			n, specs, workers, 3*workers)
	}
}

// TestLeaderTokenAuth: a leader started with a token refuses /healthz
// and every /queue/* endpoint with 401, both without a token and with a
// wrong one; a worker presenting a wrong token gets an error back from
// Run after one request instead of retrying; and a worker presenting
// the right token resolves a spec end to end.
func TestLeaderTokenAuth(t *testing.T) {
	q := NewQueue(0, time.Now)
	handler := NewLeader(q, "hunter2").Handler()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")

	endpoints := []struct{ method, path string }{
		{http.MethodGet, "/healthz"},
		{http.MethodPost, "/queue/claim"},
		{http.MethodPost, "/queue/heartbeat"},
		{http.MethodPost, "/queue/complete"},
		{http.MethodPost, "/queue/nack"},
	}
	for _, auth := range []string{"", "Bearer hunter3"} {
		for _, ep := range endpoints {
			req, err := http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			if auth != "" {
				req.Header.Set("Authorization", auth)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s with auth %q answered %s, want 401", ep.method, ep.path, auth, resp.Status)
			}
		}
	}
	if st := q.Stats(); st != (Stats{}) {
		t.Fatalf("refused requests reached the queue: %+v", st)
	}

	// A wrong-token worker stops with an error; an instant sleeper means
	// a retry loop would spin until the deadline and return nil.
	wrong := NewPullWorker(addr, "impostor", experiment.LocalBackend{}, nil, 1, 1)
	wrong.SetToken("hunter3")
	wrong.SetSleep(func(ctx context.Context, _ time.Duration) error { return ctx.Err() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before := hits.Load()
	if err := wrong.Run(ctx); err == nil || !strings.Contains(err.Error(), "refused token") {
		t.Fatalf("wrong-token worker returned %v, want the leader's refusal", err)
	}
	if n := hits.Load() - before; n != 1 {
		t.Fatalf("wrong-token worker sent %d requests, want 1 (no retry)", n)
	}

	// The right token resolves a spec.
	resc, errc := submitAsync(q, simSpec(0))
	right := NewPullWorker(addr, "trusted", experiment.LocalBackend{}, nil, 1, 1)
	right.SetToken("hunter2")
	wctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- right.Run(wctx) }()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	got := <-resc
	stop()
	if err := <-done; err != nil {
		t.Fatalf("right-token worker: %v", err)
	}
	if !bytes.Equal(got.Encode(), serialResult(t, simSpec(0)).Encode()) {
		t.Fatal("right-token result differs from serial")
	}
	if right.Runs() != 1 {
		t.Fatalf("right-token worker simulated %d specs, want 1", right.Runs())
	}
}

// TestLeaderHealthz: /healthz answers the token holder with exactly the
// wire.Health fields — status, the leader's schema, and the queue's live
// lease and resolved counts.
func TestLeaderHealthz(t *testing.T) {
	q := NewQueue(0, time.Now)
	ts := httptest.NewServer(NewLeader(q, "hunter2").Handler())
	t.Cleanup(ts.Close)

	// One spec done, one leased and outstanding.
	_, errc0 := submitAsync(q, qspec(0))
	_, errc1 := submitAsync(q, qspec(1))
	waitPending(t, q, 2)
	id, specs := q.Claim(noWait, "w", 1)
	if err := q.Complete(id, specs[0].Key(), wire.Result{Cycles: 1}, false); err != nil {
		t.Fatal(err)
	}
	id, specs = q.Claim(noWait, "w", 1)
	if id == 0 {
		t.Fatal("the second spec was not claimable")
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer hunter2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz answered %s", resp.Status)
	}
	var h wire.Health
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if h.Status != "ok" || h.Schema != wire.SchemaVersion() {
		t.Fatalf("healthz = %+v, want status ok and schema %s", h, wire.SchemaVersion())
	}
	st := q.Stats()
	if st.Leased != 1 || st.Done != 1 {
		t.Fatalf("queue stats %+v, want one leased and one done", st)
	}
	if h.Inflight != st.Leased || h.Runs != uint64(st.Done) {
		t.Fatalf("healthz inflight/runs = %d/%d, queue leased/done = %d/%d",
			h.Inflight, h.Runs, st.Leased, st.Done)
	}

	// Resolve the outstanding lease so both submitters return.
	if err := q.Complete(id, specs[0].Key(), wire.Result{Cycles: 2}, false); err != nil {
		t.Fatal(err)
	}
	for _, errc := range []<-chan error{errc0, errc1} {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPullWorkerTLSPinning: a worker pinning the leader's CA resolves a
// spec over HTTPS; a worker with an empty CA pool never claims anything
// from the same leader — its claims fail at the handshake.
func TestPullWorkerTLSPinning(t *testing.T) {
	q := NewQueue(0, time.Now)
	ts := httptest.NewUnstartedServer(NewLeader(q, "").Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshakes are expected
	ts.StartTLS()
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "https://")
	resc, errc := submitAsync(q, simSpec(0))
	waitPending(t, q, 1)

	// Three failed claims, then the sleeper ends the run.
	untrusted := NewPullWorker(addr, "untrusted", experiment.LocalBackend{}, nil, 1, 1)
	untrusted.SetTLS(x509.NewCertPool())
	var retries int
	untrusted.SetSleep(func(ctx context.Context, _ time.Duration) error {
		if retries++; retries == 3 {
			return context.Canceled
		}
		return nil
	})
	if err := untrusted.Run(context.Background()); err != nil {
		t.Fatalf("untrusted worker: %v", err)
	}
	if untrusted.Claims() != 0 || q.Stats().Leased != 0 {
		t.Fatalf("a worker without the leader's CA claimed work (%d claims)", untrusted.Claims())
	}

	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	pinned := NewPullWorker(addr, "pinned", experiment.LocalBackend{}, nil, 1, 1)
	pinned.SetTLS(pool)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- pinned.Run(ctx) }()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	got := <-resc
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("pinned worker: %v", err)
	}
	if !bytes.Equal(got.Encode(), serialResult(t, simSpec(0)).Encode()) {
		t.Fatal("result over TLS differs from serial")
	}
}

// attackSpec is a small registered attack job.
func attackSpec(name string) wire.Spec {
	o := core.OptionsFor(core.NoisyXOR).Normalized()
	spec := wire.Spec{
		Kind:      wire.KindAttack,
		Opts:      o,
		Codec:     o.Codec.Name(),
		Scrambler: o.Scrambler.Name(),
		Attack: &wire.AttackSpec{
			Name:     name,
			Scenario: "single",
			Trials:   200,
			Seed:     5,
		},
	}
	spec.Opts.Codec, spec.Opts.Scrambler = nil, nil
	return spec
}

// TestPullWorkerRunsAttackJobs: pull workers execute attack-kind specs
// with store write-through. The same job sent again — through a
// restarted leader whose queue has no memory of it — is replayed from
// the worker's store, and the leader counts the replay. A job naming
// an unregistered attack makes the leader-side Run fail with the
// worker's error (Queue.Fail end to end over HTTP).
func TestPullWorkerRunsAttackJobs(t *testing.T) {
	st, err := runcache.Open(t.TempDir(), wire.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	// run starts a fresh leader and one store-backed worker, resolves
	// spec through the leader, and stops both.
	run := func(spec wire.Spec) (wire.Result, *PullWorker, *Backend, error) {
		t.Helper()
		leader := NewLeader(NewQueue(0, time.Now), "")
		ts := httptest.NewServer(leader.Handler())
		defer ts.Close()
		w := NewPullWorker(strings.TrimPrefix(ts.URL, "http://"), "attacker",
			experiment.LocalBackend{}, st, 1, 1)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		b := leader.Backend()
		res, err := b.Run(context.Background(), spec)
		cancel()
		if werr := <-done; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
		return res, w, b, err
	}

	spec := attackSpec("btb_training")
	res, w, _, err := run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attack == nil || res.Attack.Trials != 200 {
		t.Fatalf("attack result = %+v, want 200 counted trials", res.Attack)
	}
	if w.Runs() != 1 {
		t.Fatalf("worker runs = %d, want 1", w.Runs())
	}

	res2, w2, b2, err := run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Runs() != 0 || w2.Replays() != 1 || b2.Replays() != 1 {
		t.Fatalf("second send was not a store replay (runs=%d, replays=%d, leader-counted=%d)",
			w2.Runs(), w2.Replays(), b2.Replays())
	}
	if *res2.Attack != *res.Attack {
		t.Fatalf("replayed outcome %+v differs from computed %+v", res2.Attack, res.Attack)
	}

	if _, _, _, err := run(attackSpec("rowhammer")); err == nil || !strings.Contains(err.Error(), `unknown attack "rowhammer"`) {
		t.Fatalf("unregistered attack: leader-side Run returned %v, want the worker's unknown-attack error", err)
	}
}

// TestPullWorkerRejectsInvalidSpec: a spec naming a codec no registry
// knows is refused by the worker, not guessed at. The leader-side Run
// fails with the worker's validation error, the spec is not handed to
// another claim, and the worker stays in the fleet: the next valid spec
// resolves on the same Run loop.
func TestPullWorkerRejectsInvalidSpec(t *testing.T) {
	q := NewQueue(0, time.Now)
	leader := NewLeader(q, "")
	ts := httptest.NewServer(leader.Handler())
	t.Cleanup(ts.Close)
	w := NewPullWorker(strings.TrimPrefix(ts.URL, "http://"), "validator",
		experiment.LocalBackend{}, nil, 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	bad := simSpec(0)
	bad.Codec = "rot13"
	b := leader.Backend()
	if _, err := b.Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), `unknown codec "rot13"`) {
		t.Fatalf("invalid spec: leader-side Run returned %v, want the worker's unknown-codec error", err)
	}
	got, err := b.Run(context.Background(), simSpec(1))
	if err != nil {
		t.Fatalf("valid spec after a rejected one: %v", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if !bytes.Equal(got.Encode(), serialResult(t, simSpec(1)).Encode()) {
		t.Fatal("valid spec's result differs from serial")
	}
	if w.Runs() != 1 || w.Claims() != 2 {
		t.Fatalf("worker simulated %d specs over %d claims, want 1 over 2", w.Runs(), w.Claims())
	}
	if st := q.Stats(); st.Submitted != 2 || st.Done != 2 || st.Pending != 0 || st.Leased != 0 || st.Nacked != 0 {
		t.Fatalf("queue after a rejected spec: %+v", st)
	}
}

// TestPullWorkerSharedStore: cells a sweep wrote through a worker's
// store are replayed, not re-simulated, when a later sweep asks for
// them again — a fresh leader, executor and worker process over the
// same store directory — and the replayed overhead is identical.
func TestPullWorkerSharedStore(t *testing.T) {
	dir := t.TempDir()
	opts := core.OptionsFor(core.NoisyXOR)
	pair := workload.SingleCorePairs()[0]
	// sweep computes one overhead cell through a fresh leader and one
	// fresh worker whose store is opened over dir.
	sweep := func() (float64, *PullWorker, *Backend) {
		t.Helper()
		st, err := runcache.Open(dir, wire.SchemaVersion())
		if err != nil {
			t.Fatal(err)
		}
		leader := NewLeader(NewQueue(0, time.Now), "")
		ts := httptest.NewServer(leader.Handler())
		defer ts.Close()
		w := NewPullWorker(strings.TrimPrefix(ts.URL, "http://"), "cacher",
			experiment.LocalBackend{}, st, 0, 2)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		b := leader.Backend()
		exec := experiment.NewExecutorWith(2, b)
		v := experiment.NewSessionWith(simScale(), exec).SingleCoreOverhead(opts, pair, 50_000)
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("worker: %v", err)
		}
		if err := exec.Err(); err != nil {
			t.Fatalf("executor poisoned: %v", err)
		}
		return v, w, b
	}

	first, w1, _ := sweep()
	if w1.Runs() == 0 {
		t.Fatal("no simulations reached the worker")
	}
	again, w2, b2 := sweep()
	if again != first {
		t.Fatalf("replayed overhead differs: %v vs %v", again, first)
	}
	if w2.Runs() != 0 {
		t.Fatalf("second sweep re-simulated %d cached specs", w2.Runs())
	}
	if w2.Replays() != w1.Runs() || b2.Replays() != w2.Replays() {
		t.Fatalf("second sweep replayed %d specs (leader counted %d), want the %d the first simulated",
			w2.Replays(), b2.Replays(), w1.Runs())
	}
}

// TestPullSingleFlight: concurrent identical requests through the
// leader simulate the spec once across the whole fleet — the queue
// holds one item per spec, so only one claim ever carries it — and
// every requester gets the serial result's bytes.
func TestPullSingleFlight(t *testing.T) {
	q := NewQueue(0, time.Now)
	leader := NewLeader(q, "")
	ts := httptest.NewServer(leader.Handler())
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wwg sync.WaitGroup
	workers := make([]*PullWorker, 2)
	for i := range workers {
		w := NewPullWorker(addr, fmt.Sprintf("w%d", i), experiment.LocalBackend{}, nil, 0, 2)
		workers[i] = w
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}

	const n = 4
	b := leader.Backend()
	// The deadline only bounds a queue that strands a duplicate.
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()
	results := make([]wire.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = b.Run(rctx, simSpec(0))
		}()
	}
	wg.Wait()
	cancel()
	wwg.Wait()

	want := serialResult(t, simSpec(0))
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatalf("request %d: %v", g, errs[g])
		}
		if !bytes.Equal(results[g].Encode(), want.Encode()) {
			t.Fatalf("request %d: result differs from serial", g)
		}
	}
	if runs := workers[0].Runs() + workers[1].Runs(); runs != 1 {
		t.Fatalf("fleet simulated %d times for %d concurrent identical requests, want 1", runs, n)
	}
	if st := q.Stats(); st.Submitted != 1 || st.Done != 1 || st.Duplicates != 0 {
		t.Fatalf("queue stats = %+v, want one item submitted and resolved", st)
	}
}

// TestPullWorkerRefusesForeignSchemaBatch: a batch leased under another
// schema generation (a leader that skipped the claim-time check) is
// handed back whole and uncomputed, and the worker stops with an error
// instead of producing results nobody can decode.
func TestPullWorkerRefusesForeignSchemaBatch(t *testing.T) {
	var (
		mu     sync.Mutex
		paths  []string
		nacked NackRequest
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		paths = append(paths, r.URL.Path)
		switch r.URL.Path {
		case "/queue/claim":
			if len(paths) > 1 {
				// A worker that claims again did not stop; refuse it so
				// the test fails instead of feeding it forever.
				writeError(w, http.StatusConflict, "claimed again after a schema disagreement")
				return
			}
			writeJSON(w, http.StatusOK, ClaimResponse{Schema: "xorbp-run/epoch0/ancient",
				Lease: 7, Specs: []wire.Spec{simSpec(0), simSpec(1)}, LeaseMS: 60_000})
		case "/queue/nack":
			if err := json.NewDecoder(r.Body).Decode(&nacked); err != nil {
				t.Errorf("decoding nack: %v", err)
			}
			writeJSON(w, http.StatusOK, OK{OK: true})
		default:
			writeError(w, http.StatusNotFound, "unexpected endpoint")
		}
	}))
	t.Cleanup(ts.Close)

	w := NewPullWorker(strings.TrimPrefix(ts.URL, "http://"), "w9", experiment.LocalBackend{}, nil, 2, 1)
	w.SetSleep(func(ctx context.Context, _ time.Duration) error { return ctx.Err() })
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "ancient") || !strings.Contains(err.Error(), "rebuild one side") {
		t.Fatalf("worker returned %v, want the schema disagreement", err)
	}
	if w.Runs() != 0 || w.Claims() != 0 {
		t.Fatalf("worker computed under a foreign schema (%d runs, %d claims accepted)", w.Runs(), w.Claims())
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(paths, " "); got != "/queue/claim /queue/nack" {
		t.Fatalf("worker requests = %q, want one claim and one nack", got)
	}
	if nacked.Lease != 7 || len(nacked.Keys) != 0 {
		t.Fatalf("nack = %+v, want all of lease 7", nacked)
	}
}

// TestPullDrainedWorkerClaimsNothing: a draining worker takes no new
// work. Drained before its first poll, it returns without contacting
// the leader; drained while idle on a held claim, it returns once that
// claim ends. Work submitted afterwards stays pending for the rest of
// the fleet, which still resolves it.
func TestPullDrainedWorkerClaimsNothing(t *testing.T) {
	q := NewQueue(0, time.Now)
	handler := NewLeader(q, "").Handler()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")

	early := NewPullWorker(addr, "early", experiment.LocalBackend{}, nil, 1, 1)
	early.Drain()
	// The deadline only bounds a worker that ignores the drain.
	ectx, ecancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer ecancel()
	if err := early.Run(ectx); err != nil {
		t.Fatalf("worker drained before its first poll returned %v", err)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("worker drained before its first poll sent %d requests", n)
	}

	idle := NewPullWorker(addr, "idle", experiment.LocalBackend{}, nil, 1, 1)
	done := make(chan error, 1)
	go func() { done <- idle.Run(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle worker never polled the leader")
		}
		time.Sleep(time.Millisecond)
	}
	idle.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle worker drained with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained idle worker kept polling")
	}

	resc, errc := submitAsync(q, simSpec(0))
	waitPending(t, q, 1)
	if st := q.Stats(); st.Leased != 0 || idle.Claims() != 0 || early.Claims() != 0 {
		t.Fatalf("a drained worker took work: queue %+v, claims %d and %d",
			st, early.Claims(), idle.Claims())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	successor := NewPullWorker(addr, "successor", experiment.LocalBackend{}, nil, 1, 1)
	sDone := make(chan error, 1)
	go func() { sDone <- successor.Run(ctx) }()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	got := <-resc
	cancel()
	if err := <-sDone; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), serialResult(t, simSpec(0)).Encode()) {
		t.Fatal("successor's result differs from serial")
	}
}
