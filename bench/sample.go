package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"xorbp/internal/attack"
	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/hwcost"
	"xorbp/internal/report"
	"xorbp/internal/runcache"
	"xorbp/internal/secsweep"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

// The four workloads. BENCHMARK.json, BENCH_11.json and every report
// name them, so the names never change.
const (
	figsCold  = "figs-cold"
	figsWarm  = "figs-warm"
	secSweep  = "secsweep"
	fleetPull = "fleet-pull"
)

// workloadNames is the round-robin order of a full run. figs-cold comes
// first: its first sample's store becomes the figs-warm fixture.
var workloadNames = []string{figsCold, figsWarm, secSweep, fleetPull}

// setupReps is how many times a sample repeats its set-up phase; set-up
// takes milliseconds, so one timing per sample would be mostly noise.
const setupReps = 5

// nproc is the executor width and the pull fleet's size: the load is a
// closed loop as wide as the host. GOMAXPROCS is left alone.
var nproc = runtime.NumCPU()

// sizes fixes how much work one sample does. fullSizes is the benchmark;
// tinySizes keeps the same shapes small enough for the smoke test.
type sizes struct {
	scale       experiment.Scale // figs-cold / figs-warm simulation scale
	warmInvokes int              // figs-warm invocations per sample
	sweep       secsweep.Config  // secsweep grid
	fleetSweep  secsweep.Config  // one fleet-pull seed's grid
	fleetSeeds  int              // fleet-pull consecutive seeds per sample
	charInstr   int              // instructions per workload in the characterization table
}

func fullSizes(seed uint64) sizes {
	sc := experiment.MicroScale()
	sc.Seed = seed
	sw := secsweep.DefaultConfig()
	sw.Attack = attack.Config{Iterations: 2000, Attempts: 60, Trials: 2000, Seed: seed}
	return sizes{scale: sc, warmInvokes: 100, sweep: sw,
		fleetSweep: secsweep.QuickConfig(), fleetSeeds: 8, charInstr: 400_000}
}

func tinySizes(seed uint64) sizes {
	// Micro scale's timer periods over far shorter runs: shrinking the
	// periods with the budgets would make every run a flush storm.
	sc := experiment.MicroScale()
	sc.WarmupInstr, sc.MeasureInstr = 2_000, 8_000
	sc.SMTWarmupInstr, sc.SMTMeasureInstr = 4_000, 16_000
	sc.Seed = seed
	sw := secsweep.QuickConfig()
	sw.Attack = attack.Config{Iterations: 20, Attempts: 4, Trials: 40, Seed: seed}
	sw.RekeyPeriods = []uint64{1, 4}
	sw.Predictors = []string{"", "gshare"}
	return sizes{scale: sc, warmInvokes: 3, sweep: sw, fleetSweep: sw, fleetSeeds: 2, charInstr: 5_000}
}

// figExp is one experiment of `bpsim -exp all`.
type figExp struct {
	name string
	sims bool // resolves cells through the executor (and so replays warm)
	run  func(s *experiment.Session) (*report.Table, error)
}

// figExps mirrors bpsim's experiment list, in bpsim's order, static
// tables included.
func figExps(sz sizes) []figExp {
	sim := func(name string, f func(*experiment.Session) *experiment.Table) figExp {
		return figExp{name: name, sims: true, run: func(s *experiment.Session) (*report.Table, error) { return f(s), nil }}
	}
	static := func(name string, f func() *report.Table) figExp {
		return figExp{name: name, run: func(*experiment.Session) (*report.Table, error) { return f(), nil }}
	}
	return []figExp{
		static("table2", experiment.Table2),
		static("table3", experiment.Table3),
		{name: "workloads", run: func(*experiment.Session) (*report.Table, error) {
			return workload.CharacterizationTable(sz.charInstr, sz.scale.Seed)
		}},
		sim("fig1", (*experiment.Session).Figure1),
		sim("fig2", (*experiment.Session).Figure2),
		sim("fig3", (*experiment.Session).Figure3),
		sim("fig7", (*experiment.Session).Figure7),
		sim("fig8", (*experiment.Session).Figure8),
		sim("fig9", (*experiment.Session).Figure9),
		sim("fig10", (*experiment.Session).Figure10),
		sim("rekey", (*experiment.Session).RekeySweep),
		sim("table4", (*experiment.Session).Table4),
		static("table5", hwcost.Table5),
		sim("mpki", (*experiment.Session).MPKI),
		sim("residency", (*experiment.Session).BTBResidency),
	}
}

// sampleResult is what one sample reports to the parent. The child fills
// everything except the rusage fields.
type sampleResult struct {
	Workload  string    `json:"workload"`
	Setups    []float64 `json:"setups_s"`  // every set-up timing of the sample
	WallS     float64   `json:"wall_s"`    // resolving and rendering, set-up excluded
	Cells     int       `json:"cells"`     // resolved cells, summed over invocations
	Attempted int       `json:"attempted"` // planned cells, summed over invocations
	Failed    int       `json:"failed"`
	SimInstr  uint64    `json:"sim_instr"` // measure-window instructions of the stored results

	ResultsSHA string            `json:"results_sha256"`
	RenderSHA  string            `json:"render_sha256"`
	Tables     map[string]string `json:"tables"` // table name -> SHA-256 of its render
	Err        string            `json:"error,omitempty"`

	CPUS      float64 `json:"cpu_s"`       // parent: child user+sys
	PeakRSSMB float64 `json:"peak_rss_mb"` // parent: child Maxrss

	// Traced samples only.
	Traced      map[string]float64 `json:"traced,omitempty"`
	Attribution []attrGroup        `json:"attribution,omitempty"`
}

func (r *sampleResult) fail(err error) {
	if r.Err == "" {
		r.Err = err.Error()
	}
	r.Failed = r.Attempted
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// runSample runs one sample of a workload in dir (a fresh directory the
// sample owns; figs-cold leaves its store at dir/store, where the parent
// picks up the figs-warm fixture). fixture is the store figs-warm
// copies. t is nil for an untraced sample.
func runSample(name string, sz sizes, dir, fixture string, t *tracer) sampleResult {
	res := sampleResult{Workload: name}
	var err error
	switch name {
	case figsCold:
		err = sampleFigsCold(&res, sz, dir, t)
	case figsWarm:
		err = sampleFigsWarm(&res, sz, dir, fixture, t)
	case secSweep:
		err = sampleSecsweep(&res, sz, dir, t)
	case fleetPull:
		err = sampleFleetPull(&res, sz, dir, t)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		res.fail(err)
	}
	return res
}

// repeatSetup runs a set-up phase setupReps times (once when traced),
// recording each timing, and keeps the last product. Earlier products
// are closed and their directories are left to the sample's cleanup.
func repeatSetup[T any](res *sampleResult, t *tracer, dir string, setup func(dir string, t *tracer) (T, func(), error)) (T, func(), error) {
	reps := setupReps
	if t != nil {
		reps = 1
	}
	var zero T
	for i := 0; i < reps; i++ {
		d := filepath.Join(dir, "store")
		var tt *tracer
		if i < reps-1 {
			d = filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		} else {
			tt = t
		}
		start := time.Now()
		v, closeFn, err := setup(d, tt)
		res.Setups = append(res.Setups, since(start))
		if err != nil {
			return zero, nil, err
		}
		if i == reps-1 {
			return v, closeFn, nil
		}
		closeFn()
	}
	return zero, nil, fmt.Errorf("no set-up ran")
}

// figsSetup is one bpsim invocation's set-up: a planner pass over every
// simulating experiment, runcache.Open and Executor.Plan.
func figsSetup(sz sizes, dir string, t *tracer) (*experiment.Executor, error) {
	planner := experiment.NewPlanner()
	t.span("planner", "setup", func() {
		ps := experiment.NewSessionWith(sz.scale, planner)
		for _, e := range figExps(sz) {
			if e.sims {
				_, _ = e.run(ps) // planner tables are discarded
			}
		}
	})
	var st *runcache.Store
	var err error
	t.span("runcache.Open", "setup", func() { st, err = runcache.Open(dir, experiment.SchemaVersion()) })
	if err != nil {
		return nil, err
	}
	exec := experiment.NewExecutor(nproc)
	exec.SetStore(st)
	t.attach(exec)
	t.span("Executor.Plan", "setup", func() { exec.Plan(planner) })
	return exec, nil
}

// renderFigs runs every experiment in order on exec and returns the
// rendered tables; skip names experiments to leave out.
func renderFigs(sz sizes, exec *experiment.Executor, t *tracer, skip string) ([]namedRender, error) {
	s := experiment.NewSessionWith(sz.scale, exec)
	var out []namedRender
	for _, e := range figExps(sz) {
		if e.name == skip {
			continue
		}
		var text string
		var err error
		t.span(e.name, "experiment", func() {
			var tab *report.Table
			if tab, err = e.run(s); err == nil {
				text = tab.Render()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, namedRender{e.name, text})
	}
	return out, exec.Err()
}

func sampleFigsCold(res *sampleResult, sz sizes, dir string, t *tracer) error {
	exec, _, err := repeatSetup(res, t, dir, func(d string, t *tracer) (*experiment.Executor, func(), error) {
		e, err := figsSetup(sz, d, t)
		return e, func() {}, err
	})
	if err != nil {
		return err
	}
	res.Attempted = exec.Planned()
	start := time.Now()
	renders, err := renderFigs(sz, exec, t, "")
	res.WallS = since(start)
	res.Cells = exec.CacheSize()
	if err != nil {
		return err
	}
	res.setRenders(renders)
	if err := res.digestStore(exec); err != nil {
		return err
	}
	t.finishCells(res, exec.Workers())
	t.attribute(res, sz.scale)
	return nil
}

// warmSkip is the one bpsim experiment figs-warm leaves out: the
// workload characterization table regenerates its workloads on every
// invocation instead of replaying, and would dominate a warm sample.
const warmSkip = "workloads"

func sampleFigsWarm(res *sampleResult, sz sizes, dir, fixture string, t *tracer) error {
	if fixture == "" {
		return fmt.Errorf("figs-warm needs a fixture store")
	}
	store := filepath.Join(dir, "store")
	if err := os.CopyFS(store, os.DirFS(fixture)); err != nil {
		return fmt.Errorf("copying the fixture: %w", err)
	}
	var first []namedRender
	var invokeMS []float64
	var last *experiment.Executor
	for i := 0; i < sz.warmInvokes; i++ {
		start := time.Now()
		var exec *experiment.Executor
		var err error
		t.span(fmt.Sprintf("invocation %d", i), "invocation", func() {
			mid := time.Now()
			exec, err = figsSetup(sz, store, t)
			res.Setups = append(res.Setups, since(mid))
			if err != nil {
				return
			}
			mid = time.Now()
			var renders []namedRender
			renders, err = renderFigs(sz, exec, t, warmSkip)
			res.WallS += since(mid)
			if err == nil && first == nil {
				first = renders
			} else if err == nil && !slices.Equal(first, renders) {
				err = fmt.Errorf("warm invocation %d rendered differently from the first", i)
			}
		})
		invokeMS = append(invokeMS, since(start)*1000)
		if exec != nil {
			res.Attempted += exec.Planned()
			res.Cells += exec.CacheSize()
		}
		if err != nil {
			return err
		}
		if n := exec.Runs(); n > 0 {
			return fmt.Errorf("warm invocation %d simulated %d cells; the fixture does not cover the grid", i, n)
		}
		last = exec
	}
	res.setRenders(first)
	if err := res.digestStore(last); err != nil {
		return err
	}
	if t != nil {
		t.metrics["experiment.figs-warm.invocation_ms_p50"] = percentile(invokeMS, 50)
		t.metrics["experiment.figs-warm.invocation_ms_p99"] = percentile(invokeMS, 99)
	}
	return nil
}

// sweepTables renders the secsweep report table by table (the order of
// secsweep.Sweep.Tables), one span per table.
func sweepTables(sw *secsweep.Sweep, t *tracer, prefix string) []namedRender {
	steps := []struct {
		name string
		fn   func() *report.Table
	}{
		{"matrix-single", func() *report.Table { return sw.Matrix(attack.SingleThreaded) }},
		{"matrix-smt", func() *report.Table { return sw.Matrix(attack.SMT) }},
		{"rekey-curve", sw.RekeyCurve},
		{"predictor-matrix", sw.PredictorMatrix},
		{"verdicts", sw.Verdicts},
	}
	var out []namedRender
	for _, s := range steps {
		var text string
		t.span(prefix+s.name, "experiment", func() { text = s.fn().Render() })
		out = append(out, namedRender{prefix + s.name, text})
	}
	return out
}

// pullSubmissions is the executor width over the pull fleet: bpsim
// -fleet's default, which keeps enough submissions queued that a
// worker coming back for work always finds some. The work itself still
// runs on nproc workers over nproc connections.
const pullSubmissions = 128

// sweepSetup plans a set of sweep configs on a fresh executor of the
// given width over backend (nil = local), with the store at dir.
func sweepSetup(cfgs []secsweep.Config, width int, backend experiment.Backend, dir string, t *tracer) (*experiment.Executor, error) {
	planner := experiment.NewPlanner()
	t.span("planner", "setup", func() {
		for _, c := range cfgs {
			secsweep.New(c, planner).Tables()
		}
	})
	var st *runcache.Store
	var err error
	t.span("runcache.Open", "setup", func() { st, err = runcache.Open(dir, experiment.SchemaVersion()) })
	if err != nil {
		return nil, err
	}
	exec := experiment.NewExecutorWith(width, backend)
	exec.SetStore(st)
	t.attach(exec)
	t.span("Executor.Plan", "setup", func() { exec.Plan(planner) })
	return exec, nil
}

func sampleSecsweep(res *sampleResult, sz sizes, dir string, t *tracer) error {
	cfgs := []secsweep.Config{sz.sweep}
	exec, _, err := repeatSetup(res, t, dir, func(d string, t *tracer) (*experiment.Executor, func(), error) {
		e, err := sweepSetup(cfgs, nproc, nil, d, t)
		return e, func() {}, err
	})
	if err != nil {
		return err
	}
	res.Attempted = exec.Planned()
	start := time.Now()
	renders := sweepTables(secsweep.New(sz.sweep, exec), t, "")
	res.WallS = since(start)
	res.Cells = exec.CacheSize()
	if err := exec.Err(); err != nil {
		return err
	}
	res.setRenders(renders)
	if err := res.digestStore(exec); err != nil {
		return err
	}
	t.finishCells(res, exec.Workers())
	t.attackCells()
	return nil
}

// fleetSeedCfgs returns the fleet-pull sweep configs: consecutive
// attack seeds starting at fleetSeeds*seed, so samples of different
// benchmark seeds share no cells.
func fleetSeedCfgs(sz sizes) []secsweep.Config {
	var cfgs []secsweep.Config
	for i := 0; i < sz.fleetSeeds; i++ {
		c := sz.fleetSweep
		c.Attack.Seed = uint64(sz.fleetSeeds)*sz.scale.Seed + uint64(i)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func sampleFleetPull(res *sampleResult, sz sizes, dir string, t *tracer) error {
	cfgs := fleetSeedCfgs(sz)
	type rigged struct {
		rig  *pullFleet
		exec *experiment.Executor
	}
	r, stop, err := repeatSetup(res, t, dir, func(d string, t *tracer) (rigged, func(), error) {
		var rig *pullFleet
		var err error
		t.span("fleet start", "setup", func() { rig, err = startPullFleet(nproc, t) })
		if err != nil {
			return rigged{}, nil, err
		}
		exec, err := sweepSetup(cfgs, pullSubmissions, rig.backend, d, t)
		if err != nil {
			rig.stop()
			return rigged{}, nil, err
		}
		return rigged{rig, exec}, rig.stop, nil
	})
	if err != nil {
		return err
	}
	defer stop()
	exec := r.exec
	res.Attempted = exec.Planned()
	start := time.Now()
	var renders []namedRender
	for i, c := range cfgs {
		renders = append(renders, sweepTables(secsweep.New(c, exec), t, fmt.Sprintf("seed%d/", i))...)
	}
	res.WallS = since(start)
	res.Cells = exec.CacheSize()
	if err := exec.Err(); err != nil {
		return err
	}
	res.setRenders(renders)
	if err := res.digestStore(exec); err != nil {
		return err
	}
	t.finishCells(res, exec.Workers())
	t.fleetMetrics(r.rig, res.WallS)
	return nil
}

// pullFleet is an in-process loopback pull fleet: a queue leader on
// 127.0.0.1 and n pull workers (batch 1, one slot, local backend, no
// worker-side store), each holding at most one connection.
type pullFleet struct {
	backend experiment.Backend
	workers []*fleet.PullWorker
	hs      *http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func startPullFleet(n int, t *tracer) (*pullFleet, error) {
	leader := fleet.NewLeader(fleet.NewQueue(0, time.Now), "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &pullFleet{backend: t.wrapDispatch(leader.Backend()), hs: &http.Server{Handler: leader.Handler()}}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < n; i++ {
		w := fleet.NewPullWorker(ln.Addr().String(), fmt.Sprintf("bench-%d", i),
			t.wrapSim(experiment.LocalBackend{}), nil, 1, 1)
		f.workers = append(f.workers, w)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx) // returns nil on cancel; a schema clash cannot happen in one process
		}()
	}
	return f, nil
}

// stop cancels the workers, closes the leader and waits for every
// goroutine the fleet started.
func (f *pullFleet) stop() {
	f.cancel()
	_ = f.hs.Close()
	f.wg.Wait()
}

// namedRender is one rendered table.
type namedRender struct{ name, text string }

// setRenders records the render digest over every table in order, and
// each table's own digest.
func (r *sampleResult) setRenders(rs []namedRender) {
	h := sha256.New()
	r.Tables = make(map[string]string, len(rs))
	for _, x := range rs {
		fmt.Fprintf(h, "## %s\n%s\n", x.name, x.text)
		sum := sha256.Sum256([]byte(x.text))
		r.Tables[x.name] = hex.EncodeToString(sum[:])
	}
	r.RenderSHA = hex.EncodeToString(h.Sum(nil))
}

// digestStore reopens the executor's store from disk and hashes every
// planned cell's stored result in key order. A planned cell missing
// from disk is an error. It also totals the measure-window instructions
// of the performance results.
func (r *sampleResult) digestStore(exec *experiment.Executor) error {
	st, err := runcache.Open(filepath.Dir(exec.Store().Dir()), experiment.SchemaVersion())
	if err != nil {
		return err
	}
	keys := exec.PlannedKeys()
	if st.Len() != len(keys) {
		return fmt.Errorf("store holds %d entries for %d planned cells", st.Len(), len(keys))
	}
	h := sha256.New()
	for _, k := range keys {
		raw, ok := st.Get(k)
		if !ok {
			return fmt.Errorf("planned cell %s missing from the store", k)
		}
		res, err := wire.DecodeResult(raw)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\n%s\n", k, raw)
		r.SimInstr += res.Target.Instructions
		for _, o := range res.Others {
			r.SimInstr += o.Instructions
		}
	}
	r.ResultsSHA = hex.EncodeToString(h.Sum(nil))
	return nil
}
