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
//	serial   fault-free reference renders (Figure 1 and the re-key sweep)
//	pull     pull-queue fleet with worker crashes mid-lease, dropped
//	         heartbeats and duplicate completions, plus cache write
//	         corruption on the leader's store; sweep journal attached,
//	         then replayed into a fresh executor (zero re-simulation),
//	         and the reopened store must quarantine exactly the
//	         corrupted entries
//	restart  the pull leader is killed mid-sweep at a plan-scheduled
//	         point; a restarted leader resumes from the journal, workers
//	         rejoin, and only the remainder is simulated
//	snap     snapshot prefix blobs corrupted on write; the re-key sweep
//	         must fall back to cold simulation with identical results,
//	         and a reopened snapshot store must quarantine the blob
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
	"path/filepath"
	"sync/atomic"
	"time"

	"xorbp/internal/chaos"
	"xorbp/internal/driver"
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

	serialFig := h.mustRender(experiment.NewExecutor(1))
	serialRekey := h.mustRenderRekey(experiment.NewExecutor(1))
	fmt.Println("serial: reference renders done")

	h.pull(serialFig)
	h.restart(serialFig)
	h.snap(serialRekey)

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

func (h *harness) mustRenderRekey(exec *experiment.Executor) string {
	out := experiment.NewSessionWith(h.scale, exec).RekeySweep().Render()
	if err := exec.Err(); err != nil {
		h.failf("executor failed: %v", err)
	}
	return out
}

// planFig plans the Figure 1 grid onto exec (journal bookkeeping needs
// the planned key set before the first batch).
func (h *harness) planFig(exec *experiment.Executor) {
	p := experiment.NewPlanner()
	experiment.NewSessionWith(h.scale, p).Figure1()
	exec.Plan(p)
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
// write corruption on the leader's store, with the sweep journal
// attached and then replayed into a fresh executor.
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

	dir := h.tempDir("chaosbench-pull-*")
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "sweep.journal")

	cacheDir := filepath.Join(dir, "cache")
	st, err := runcache.Open(cacheDir, experiment.SchemaVersion())
	if err != nil {
		h.failf("pull: %v", err)
		return
	}
	st.SetFileFault(chaos.NewCacheFaults(inj))

	exec := experiment.NewExecutorWith(h.n*h.cap, leader.Backend())
	exec.SetStore(st)
	h.planFig(exec)
	j, err := driver.OpenJournal(jpath, experiment.SchemaVersion(), false)
	if err != nil {
		h.failf("pull: %v", err)
		return
	}
	j.Plan(exec.PlannedKeys())
	exec.SetJournal(j)

	render := h.mustRender(exec)
	if render != serial {
		h.failf("pull: render diverged from serial under worker and cache faults")
	}
	if err := j.Err(); err != nil {
		h.failf("pull: journal: %v", err)
	}
	if j.Done() != exec.Planned() {
		h.failf("pull: journal holds %d cells, want %d", j.Done(), exec.Planned())
	}
	_ = j.Close()

	counts := inj.Counts()
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

	// Resume: a fresh executor primed from the journal must render
	// identically without a single simulation.
	j2, err := driver.OpenJournal(jpath, experiment.SchemaVersion(), true)
	if err != nil {
		h.failf("pull: resume: %v", err)
		return
	}
	resumed := experiment.NewExecutorWith(1, experiment.LocalBackend{})
	h.planFig(resumed)
	primed := j2.PrimeExecutor(resumed)
	_ = j2.Close()
	if primed != resumed.Planned() {
		h.failf("pull: resume primed %d cells, want the full grid (%d)", primed, resumed.Planned())
	}
	if h.mustRender(resumed) != serial {
		h.failf("pull: resumed render diverged from serial")
	}
	if resumed.Runs() != 0 {
		h.failf("pull: resumed render simulated %d cells, want 0", resumed.Runs())
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
	fmt.Printf("pull: identical; crashes=%d stolen=%d duplicates=%d; resume replayed %d cells with 0 simulations; warm pass re-simulated %d lost entries; faults: %v\n",
		crashes, qs.Stolen, qs.Duplicates, primed, lost, inj.CountLines())
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

// restart: the pull leader dies mid-sweep; a second leader resumes from
// the journal, fresh workers rejoin, and only the remainder simulates.
func (h *harness) restart(serial string) {
	inj := h.injector()
	dir := h.tempDir("chaosbench-restart-*")
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "sweep.journal")

	runPass := func(resume bool) (done, primed int, runs uint64, execErr error) {
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
		// the kill point, so the crash leaves real work for the resume.
		exec := experiment.NewExecutorWith(4, &crashingBackend{inner: leader.Backend(), inj: inj})
		h.planFig(exec)
		j, err := driver.OpenJournal(jpath, experiment.SchemaVersion(), resume)
		if err != nil {
			h.failf("restart: %v", err)
			os.Exit(1)
		}
		defer j.Close()
		if resume {
			primed = j.PrimeExecutor(exec)
		}
		j.Plan(exec.PlannedKeys())
		exec.SetJournal(j)
		render := experiment.NewSessionWith(h.scale, exec).Figure1().Render()
		if execErr = exec.Err(); execErr == nil && render != serial {
			h.failf("restart: render diverged from serial")
		}
		return j.Done(), primed, exec.Runs(), execErr
	}

	done1, _, _, err1 := runPass(false)
	planned := h.gridSize()
	if err1 == nil {
		h.failf("restart: first pass survived — leaderrestart never fired (plan too late for a %d-cell grid?)", planned)
		return
	}
	if done1 >= planned {
		h.failf("restart: first pass journaled the whole grid (%d) despite the crash", done1)
	}

	done2, primed2, runs2, err2 := runPass(true)
	if err2 != nil {
		h.failf("restart: resumed pass failed: %v", err2)
		return
	}
	if primed2 != done1 {
		h.failf("restart: resumed pass primed %d cells, journal held %d", primed2, done1)
	}
	if int(runs2) != planned-primed2 {
		h.failf("restart: resumed pass simulated %d cells, want exactly the remainder %d — a journaled cell ran twice or was lost",
			runs2, planned-primed2)
	}
	if done2 != planned {
		h.failf("restart: resumed journal holds %d cells, want %d", done2, planned)
	}
	fmt.Printf("restart: leader killed after %d/%d cells; resume primed %d, simulated only the %d-cell remainder; identical\n",
		done1, planned, primed2, runs2)
}

func (h *harness) gridSize() int {
	p := experiment.NewPlanner()
	experiment.NewSessionWith(h.scale, p).Figure1()
	return p.Planned()
}

// snap: snapshot prefix blobs corrupted on write. The sweep must not
// notice (restore falls back to cold simulation), and a reopened
// snapshot store must quarantine exactly the corrupted blobs.
func (h *harness) snap(serialRekey string) {
	inj := h.injector()
	dir := h.tempDir("chaosbench-snap-*")
	defer os.RemoveAll(dir)
	st, err := runcache.Open(dir, experiment.SnapSchema())
	if err != nil {
		h.failf("snap: %v", err)
		return
	}
	st.SetFileFault(chaos.NewSnapFaults(inj))

	exec := experiment.NewExecutorWith(4, experiment.LocalBackend{})
	exec.SetSnapshots(experiment.NewSnapStore(st))
	if h.mustRenderRekey(exec) != serialRekey {
		h.failf("snap: re-key render diverged under snapshot corruption")
	}

	flips := int(inj.Counts()["snapshot/snapcorrupt"])
	st2, err := runcache.Open(dir, experiment.SnapSchema())
	if err != nil {
		h.failf("snap: reopen: %v", err)
		return
	}
	if got := st2.Stats().Quarantined; got != flips {
		h.failf("snap: reopen quarantined %d blobs, want %d (snapcorrupt fires)", got, flips)
	}
	// A second sweep over the quarantine-swept snapshot store must also
	// match: missing prefixes only cost cold simulation.
	exec2 := experiment.NewExecutorWith(4, experiment.LocalBackend{})
	exec2.SetSnapshots(experiment.NewSnapStore(st2))
	if h.mustRenderRekey(exec2) != serialRekey {
		h.failf("snap: warm re-key render over swept snapshot store diverged")
	}
	fmt.Printf("snap: identical; %d corrupted blob(s) quarantined at reopen; faults: %v\n",
		flips, inj.CountLines())
}
