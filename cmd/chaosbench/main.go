// Command chaosbench proves the sweep machinery survives deterministic
// fault injection: every scenario runs the same workload as a fault-free
// serial run, arms an internal/chaos FaultPlan at one or more seams, and
// verifies the rendered tables are byte-identical — faults may cost
// retries, steals and re-simulations, never bytes.
//
// Usage:
//
//	chaosbench [-plan CHAOS_PLAN.json] [-scale micro|bench]
//	           [-fleet 3] [-cap 4] [-check]
//
// Scenarios:
//
//	serial   fault-free reference render (Figure 1)
//	pull     pull-queue fleet with worker crashes mid-lease, dropped
//	         heartbeats and duplicate completions, plus cache write
//	         corruption on the leader's store; the reopened store must
//	         quarantine exactly the corrupted entries, and a warm render
//	         over it must re-simulate exactly the lost ones
//	restart  the pull leader is killed mid-sweep at a plan-scheduled
//	         point; a restarted leader on the same run cache replays the
//	         cells the first leader finished, workers rejoin, and only
//	         the remainder is simulated
//
// -check exits 1 on any divergence or failed invariant (CI runs this as
// the chaos-smoke gate). The plan file is committed, so a CI failure
// replays locally with the same flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"xorbp/internal/chaos"
	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

func main() {
	planPath := flag.String("plan", "CHAOS_PLAN.json", "FaultPlan JSON file driving every scenario")
	scaleName := flag.String("scale", "micro", "workload scale: micro or bench")
	fleetN := flag.Int("fleet", 3, "fleet size (pull workers)")
	capacity := flag.Int("cap", 4, "simulation slots per fleet member")
	check := flag.Bool("check", false, "exit 1 on any divergence or failed invariant")
	flag.Parse()

	var scale experiment.Scale
	switch *scaleName {
	case "micro":
		scale = experiment.MicroScale()
	case "bench":
		scale = experiment.BenchScale()
	default:
		fmt.Fprintf(os.Stderr, "chaosbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	plan, err := chaos.LoadPlan(*planPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		os.Exit(2)
	}
	if *fleetN < 1 || *capacity < 1 {
		fmt.Fprintln(os.Stderr, "chaosbench: -fleet and -cap must be >= 1")
		os.Exit(2)
	}

	h := &harness{scale: scale, plan: plan, n: *fleetN, cap: *capacity}
	fmt.Printf("# chaosbench: plan %s (seed %d, %d rules), %d members x %d slots, scale %s\n\n",
		*planPath, plan.Seed, len(plan.Rules), h.n, h.cap, *scaleName)

	serial := h.mustRender(experiment.NewExecutor(1))
	fmt.Println("serial: reference render done")

	h.pull(serial)
	h.restart(serial)

	if len(h.fails) > 0 {
		fmt.Fprintf(os.Stderr, "\nchaosbench: %d invariant(s) failed\n", len(h.fails))
		if *check {
			os.Exit(1)
		}
		return
	}
	fmt.Println("\nchaosbench: all scenarios byte-identical under chaos")
}

// harness runs the scenarios and accumulates invariant failures.
type harness struct {
	scale  experiment.Scale
	plan   chaos.FaultPlan
	n, cap int
	fails  []string
}

func (h *harness) failf(format string, args ...any) {
	h.fails = append(h.fails, fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "chaosbench: FAIL: "+format+"\n", args...)
}

// injector builds a fresh decision stream from the shared plan — each
// scenario replays the plan independently.
func (h *harness) injector() *chaos.Injector {
	inj, err := chaos.NewInjector(h.plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		os.Exit(2)
	}
	return inj
}

// mustRender resolves Figure 1 through exec; any executor error is a
// harness failure (used where faults must NOT surface as errors).
func (h *harness) mustRender(exec *experiment.Executor) string {
	out := experiment.NewSessionWith(h.scale, exec).Figure1().Render()
	if err := exec.Err(); err != nil {
		h.failf("executor failed: %v", err)
	}
	return out
}

func (h *harness) tempDir(pattern string) string {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		os.Exit(1)
	}
	return dir
}

// pull: worker-lifecycle faults against a real pull queue and cache
// write corruption on the leader's store.
func (h *harness) pull(serial string) {
	inj := h.injector()
	// A short lease keeps crashed-batch stealing fast; chaosbench's
	// slowest simulation is far under it.
	q := fleet.NewQueue(500*time.Millisecond, time.Now)
	leader := fleet.NewLeader(q, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: leader.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ff := chaos.NewFleetFaults(inj)
	workers := make([]*fleet.PullWorker, h.n)
	for i := range workers {
		w := fleet.NewPullWorker(ln.Addr().String(), fmt.Sprintf("chaos-%d", i),
			experiment.LocalBackend{}, nil, h.cap, h.cap)
		w.SetFaults(ff)
		workers[i] = w
		go func() { _ = w.Run(ctx) }()
	}

	cacheDir := h.tempDir("chaosbench-pull-*")
	defer os.RemoveAll(cacheDir)
	st, err := runcache.Open(cacheDir, experiment.SchemaVersion())
	if err != nil {
		h.failf("pull: %v", err)
		return
	}
	st.SetFileFault(chaos.NewCacheFaults(inj))

	exec := experiment.NewExecutorWith(h.n*h.cap, leader.Backend())
	exec.SetStore(st)
	if h.mustRender(exec) != serial {
		h.failf("pull: render diverged from serial under worker and cache faults")
	}

	counts := inj.Counts()
	// A rate-1 cache fault or worker crash fires at a fixed decision
	// point (one per record write, one per claimed spec), so one that
	// never fired means its seam went dead. heartbeatloss rides
	// wall-clock heartbeats and dupcomplete has no effect checked here;
	// those two are only reported.
	for _, r := range h.plan.Rules {
		f, _ := chaos.FaultByName(r.Fault)
		switch r.Fault {
		case "bitflip", "truncate", "enospc", "workercrash":
			if r.Rate == 1 && counts[f.Seam()+"/"+r.Fault] == 0 {
				h.failf("pull: the plan schedules %s but it never fired", r.Fault)
			}
		}
	}
	qs := q.Stats()
	var crashes uint64
	for _, w := range workers {
		crashes += w.Crashes()
	}
	if crashes != counts["fleet/workercrash"] {
		h.failf("pull: %d worker crashes, want %d (plan fires)", crashes, counts["fleet/workercrash"])
	}
	if crashes > 0 && qs.Stolen == 0 {
		h.failf("pull: a worker crashed mid-lease but no specs were stolen")
	}

	// The leader's store: every injected enospc is one put error, a
	// reopen quarantines every corrupted entry, and a warm render over
	// the survivors re-simulates exactly the lost entries (corrupted +
	// never written) and still matches serial.
	corrupted := int(counts["cachefile/bitflip"] + counts["cachefile/truncate"])
	if got := st.Stats().PutErrors; got != int(counts["cachefile/enospc"]) {
		h.failf("pull: %d put errors, want %d (one per injected enospc)", got, counts["cachefile/enospc"])
	}
	st2, err := runcache.Open(cacheDir, experiment.SchemaVersion())
	if err != nil {
		h.failf("pull: reopen: %v", err)
		return
	}
	if got := st2.Stats().Quarantined; got != corrupted {
		h.failf("pull: reopen quarantined %d entries, want %d (bitflip+truncate fires)", got, corrupted)
	}
	warm := experiment.NewExecutorWith(4, experiment.LocalBackend{})
	warm.SetStore(st2)
	if h.mustRender(warm) != serial {
		h.failf("pull: warm render from quarantine-swept cache diverged")
	}
	lost := corrupted + int(counts["cachefile/enospc"])
	if int(warm.Runs()) != lost {
		h.failf("pull: warm render simulated %d cells, want %d (corrupted+enospc)", warm.Runs(), lost)
	}
	fmt.Printf("pull: identical; crashes=%d stolen=%d duplicates=%d; warm pass replayed %d cells and re-simulated %d lost entries; faults: %v\n",
		crashes, qs.Stolen, qs.Duplicates, warm.Replays(), lost, inj.CountLines())
}

// crashingBackend wraps the leader's submitting backend: at the
// plan-scheduled leaderrestart decision point it "kills the leader" —
// the triggering run and every later one fail, exactly as a sweep whose
// leader process died. The chaos count cap means the restarted pass
// sails through the same wrapper untouched.
type crashingBackend struct {
	inner experiment.Backend
	inj   *chaos.Injector
	dead  atomic.Bool
}

func (c *crashingBackend) Run(ctx context.Context, spec wire.Spec) (wire.Result, error) {
	if c.dead.Load() {
		return wire.Result{}, errors.New("chaosbench: leader is down")
	}
	if c.inj.Hit(chaos.LeaderRestart{}) {
		c.dead.Store(true)
		return wire.Result{}, errors.New("chaosbench: leader killed by plan (leaderrestart)")
	}
	return c.inner.Run(ctx, spec)
}

// restart: the pull leader dies mid-sweep; a second leader on the same
// run-cache directory replays what the first one finished, fresh
// workers rejoin, and only the remainder simulates.
func (h *harness) restart(serial string) {
	inj := h.injector()
	cacheDir := h.tempDir("chaosbench-restart-*")
	defer os.RemoveAll(cacheDir)

	// runPass is one leader process: it opens the cache directory
	// afresh, as a restarted process would.
	runPass := func() (replays int, runs uint64, execErr error) {
		st, err := runcache.Open(cacheDir, experiment.SchemaVersion())
		if err != nil {
			h.failf("restart: %v", err)
			os.Exit(1)
		}
		q := fleet.NewQueue(500*time.Millisecond, time.Now)
		leader := fleet.NewLeader(q, "")
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
			os.Exit(1)
		}
		hs := &http.Server{Handler: leader.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := range h.n {
			w := fleet.NewPullWorker(ln.Addr().String(), fmt.Sprintf("restart-%d", i),
				experiment.LocalBackend{}, nil, h.cap, h.cap)
			go func() { _ = w.Run(ctx) }()
		}

		// A pool narrower than the grid keeps most of the sweep behind
		// the kill point, so the crash leaves real work for the restart.
		exec := experiment.NewExecutorWith(4, &crashingBackend{inner: leader.Backend(), inj: inj})
		exec.SetStore(st)
		render := experiment.NewSessionWith(h.scale, exec).Figure1().Render()
		if execErr = exec.Err(); execErr == nil && render != serial {
			h.failf("restart: render diverged from serial")
		}
		return exec.Replays(), exec.Runs(), execErr
	}

	_, runs1, err1 := runPass()
	planned := h.gridSize()
	if err1 == nil {
		h.failf("restart: first pass survived — leaderrestart never fired (plan too late for a %d-cell grid?)", planned)
		return
	}
	if int(runs1) >= planned {
		h.failf("restart: first pass simulated the whole grid (%d) despite the crash", runs1)
	}

	replays2, runs2, err2 := runPass()
	if err2 != nil {
		h.failf("restart: second pass failed: %v", err2)
		return
	}
	if replays2 != int(runs1) {
		h.failf("restart: second pass replayed %d cells, the first pass simulated %d", replays2, runs1)
	}
	if int(runs2) != planned-int(runs1) {
		h.failf("restart: second pass simulated %d cells, want exactly the remainder %d — a finished cell ran twice or was lost",
			runs2, planned-int(runs1))
	}
	fmt.Printf("restart: leader killed after %d/%d cells; resume replayed %d from the cache, simulated only the %d-cell remainder; identical\n",
		runs1, planned, replays2, runs2)
}

func (h *harness) gridSize() int {
	p := experiment.NewPlanner()
	experiment.NewSessionWith(h.scale, p).Figure1()
	return p.Planned()
}
