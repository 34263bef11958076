package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/experiment"
	"xorbp/internal/predictor"
	"xorbp/internal/report"
	"xorbp/internal/runcache"
	"xorbp/internal/snap"
	"xorbp/internal/trace"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

// layerReps is the number of samples behind every micro-suite metric;
// each metric reports the median.
const layerReps = 5

// layerSamples holds each per-layer metric's samples.
type layerSamples map[string][]float64

// Predictors measured by the predictor and core layers: the sweep set
// plus the FPGA prototype's TAGE.
func layerPredictors() []string { return append(experiment.PredictorNames(), "tage") }

// runLayers runs the per-layer micro-suite. The runcache, wire,
// experiment and report layers work on the figs-warm fixture store,
// which must hold the figs-cold grid at MicroScale and this seed.
func runLayers(seed uint64, fixture, scratch string) (layerSamples, error) {
	m := make(layerSamples)
	predictorLayer(m, seed)
	flushLayer(m, seed)
	cpuLayer(m, seed)
	if err := cellLayer(m, seed); err != nil {
		return nil, err
	}
	workloadLayer(m, seed)
	if err := snapLayer(m, seed); err != nil {
		return nil, err
	}
	if err := storeLayers(m, seed, fixture, scratch); err != nil {
		return nil, err
	}
	return m, nil
}

// nsPer times fn and returns nanoseconds per op.
func nsPer(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// condEvent is one recorded conditional branch.
type condEvent struct {
	pc    uint64
	taken bool
}

// condStream records a gcc stream of n branch events and keeps the
// conditional ones — the only branches PredictUpdate sees.
func condStream(seed uint64, n int) []condEvent {
	g := workload.NewGenerator(workload.MustByName("gcc"), seed)
	buf := make([]workload.BranchEvent, 1024)
	var out []condEvent
	for done := 0; done < n; done += len(buf) {
		g.NextBatch(buf)
		for _, e := range buf {
			if e.Class.Conditional() {
				out = append(out, condEvent{e.PC, e.Taken})
			}
		}
	}
	return out
}

// predictorReps is the predictor layer's repetition count: it replays
// the stream 18 times per repetition, the suite's largest cost.
const predictorReps = 3

// predictorLayer prices predictor+Guard arithmetic: a fresh predictor
// per replay of the recorded stream under Baseline, XOR-BP and
// Noisy-XOR-BP, the three alternating within each repetition so host
// drift hits them alike. The ratios pair each encoded replay with the
// Baseline replay of its own repetition.
func predictorLayer(m layerSamples, seed uint64) {
	evs := condStream(seed, 1_000_000)
	mechs := []core.Mechanism{core.Baseline, core.XOR, core.NoisyXOR}
	for _, p := range layerPredictors() {
		var base, xr, nr []float64
		for rep := 0; rep < predictorReps; rep++ {
			var ns [3]float64
			for i, mech := range mechs {
				pu := experiment.NewDirPredictor(p, core.NewController(core.OptionsFor(mech), seed)).(predictor.PredictUpdater)
				d := core.Domain{}
				ns[i] = nsPer(len(evs), func() {
					for _, e := range evs {
						pu.PredictUpdate(d, e.pc, e.taken)
					}
				})
			}
			base = append(base, ns[0])
			xr = append(xr, ns[1]/ns[0])
			nr = append(nr, ns[2]/ns[0])
		}
		m["predictor."+p+".ns_per_branch"] = base
		m["predictor."+p+".xor_ratio"] = xr
		m["predictor."+p+".noisy_ratio"] = nr
	}
}

// flushLayer prices one Complete-Flush context switch with each
// predictor's tables registered on the controller.
func flushLayer(m layerSamples, seed uint64) {
	for _, p := range layerPredictors() {
		ctrl := core.NewController(core.OptionsFor(core.CompleteFlush), seed)
		experiment.NewDirPredictor(p, ctrl)
		n := 1
		for nsPer(n, func() { flushN(ctrl, n) })*float64(n) < 20e6 { // at least 20 ms per sample
			n *= 2
		}
		var us []float64
		for rep := 0; rep < layerReps; rep++ {
			us = append(us, nsPer(n, func() { flushN(ctrl, n) })/1000)
		}
		m["core."+p+".flush_us"] = us
	}
}

func flushN(ctrl *core.Controller, n int) {
	for i := 0; i < n; i++ {
		ctrl.ContextSwitch(0)
	}
}

// staticPredictor always predicts taken and learns nothing: with it, a
// core's run time is the cycle loop's own (fetch, BTB, RAS, scheduler,
// workload generation) with no predictor arithmetic.
type staticPredictor struct{}

func (staticPredictor) Name() string                                 { return "static-taken" }
func (staticPredictor) Predict(core.Domain, uint64) bool             { return true }
func (staticPredictor) Update(core.Domain, uint64, bool)             {}
func (staticPredictor) PredictUpdate(core.Domain, uint64, bool) bool { return true }
func (staticPredictor) StorageBits() uint64                          { return 0 }

// loopShape is one core arrangement the cycle-loop layer measures.
type loopShape struct {
	name    string
	cfg     cpu.Config
	threads []string
}

func loopShapes() []loopShape {
	return []loopShape{
		{"single", cpu.FPGAConfig(), []string{"gcc", "calculix"}},
		{"smt2", cpu.Gem5Config(2), []string{workload.SMTPairs()[0].First, workload.SMTPairs()[0].Second}},
		{"smt4", cpu.Gem5Config(4), workload.SMTQuads()[0].Names[:]},
	}
}

// newCore builds a core on the production engine over fresh generators.
func newCore(cfg cpu.Config, ctrl *core.Controller, dir predictor.DirPredictor, threads []string, seed uint64) *cpu.Core {
	c := cpu.New(cfg, cpu.DefaultScheduler(1_000_000), ctrl, dir)
	var progs []workload.Program
	for i, n := range threads {
		progs = append(progs, workload.NewGenerator(workload.MustByName(n), seed*1000+uint64(i)))
	}
	c.Assign(progs...)
	return c
}

// cpuLayer prices the cycle loop per kilo-instruction with the static
// predictor, shapes interleaved.
func cpuLayer(m layerSamples, seed uint64) {
	const warm, n = 200_000, 4_000_000
	samples := make(map[string][]float64)
	for rep := 0; rep < layerReps; rep++ {
		for _, s := range loopShapes() {
			ctrl := core.NewController(core.OptionsFor(core.Baseline), seed)
			c := newCore(s.cfg, ctrl, staticPredictor{}, s.threads, seed)
			c.RunTotalInstructions(warm)
			samples[s.name] = append(samples[s.name], nsPer(n/1000, func() { c.RunTotalInstructions(n) }))
		}
	}
	for name, v := range samples {
		m["cpu."+name+".ns_per_kinst"] = v
	}
}

// benchCell is one of cmd/bpbench's quick cells (cpu + predictor).
type benchCell struct {
	name     string
	pred     string
	mech     core.Mechanism
	cfg      cpu.Config
	pair     [2]string
	total    bool // SMT: measure total user instructions
	replayed int  // >0: drive threads from an in-memory recording of this many events
}

// benchCells are bpbench's eight quick cells, named as BENCH_5/BENCH_8
// name them.
func benchCells() []benchCell {
	single := func(name, pred string, m core.Mechanism, a, b string) benchCell {
		return benchCell{name: name, pred: pred, mech: m, cfg: cpu.FPGAConfig(), pair: [2]string{a, b}}
	}
	return []benchCell{
		single("single/tage/gcc/baseline", "tage", core.Baseline, "gcc", "calculix"),
		single("single/tage/gcc/complete-flush", "tage", core.CompleteFlush, "gcc", "calculix"),
		single("single/tage/gcc/noisy-xor", "tage", core.NoisyXOR, "gcc", "calculix"),
		single("single/gshare/gcc/noisy-xor", "gshare", core.NoisyXOR, "gcc", "calculix"),
		single("single/gshare/gromacs/baseline", "gshare", core.Baseline, "gromacs", "GemsFDTD"),
		single("single/gshare/gromacs/complete-flush", "gshare", core.CompleteFlush, "gromacs", "GemsFDTD"),
		{name: "replay/gshare/gromacs/baseline", pred: "gshare", mech: core.Baseline,
			cfg: cpu.FPGAConfig(), pair: [2]string{"gromacs", "GemsFDTD"}, replayed: 60_000},
		{name: "smt2/ltage/zeusmp/noisy-xor", pred: "ltage", mech: core.NoisyXOR,
			cfg: cpu.Gem5Config(2), pair: [2]string{"zeusmp", "lbm"}, total: true},
	}
}

// cellMetric names a cell's metric: "/" is not allowed in metric names.
func cellMetric(name string) string {
	return "cell." + strings.ReplaceAll(name, "/", ".") + ".ns_per_kinst"
}

// cellLayer measures bpbench's quick cells on the production engine,
// round-robin across cells for layerReps rounds.
func cellLayer(m layerSamples, seed uint64) error {
	const warm, n = 200_000, 1_000_000
	samples := make(map[string][]float64)
	for rep := 0; rep < layerReps; rep++ {
		for _, s := range benchCells() {
			ctrl := core.NewController(core.OptionsFor(s.mech), seed)
			c := cpu.New(s.cfg, cpu.DefaultScheduler(1_000_000), ctrl, experiment.NewDirPredictor(s.pred, ctrl))
			var progs []workload.Program
			for i, name := range s.pair {
				gen := workload.NewGenerator(workload.MustByName(name), seed*1000+uint64(i))
				if s.replayed == 0 {
					progs = append(progs, gen)
					continue
				}
				p, err := trace.Record(gen, s.replayed, nil)
				if err != nil {
					return err
				}
				progs = append(progs, p)
			}
			c.Assign(progs...)
			run := c.RunTargetInstructions
			if s.total {
				run = c.RunTotalInstructions
			}
			run(warm)
			samples[s.name] = append(samples[s.name], nsPer(n/1000, func() { run(n) }))
		}
	}
	for name, v := range samples {
		m[cellMetric(name)] = v
	}
	return nil
}

// workloadLayer prices synthetic branch-event generation.
func workloadLayer(m layerSamples, seed uint64) {
	const n = 2_000_000
	buf := make([]workload.BranchEvent, 256)
	var ns []float64
	for rep := 0; rep < layerReps; rep++ {
		g := workload.NewGenerator(workload.MustByName("gcc"), seed)
		ns = append(ns, nsPer(n, func() {
			for done := 0; done < n; done += len(buf) {
				g.NextBatch(buf)
			}
		}))
	}
	m["workload.gen_ns_per_event"] = ns
}

// snapLayer prices a full-core snapshot and restore of a warmed TAGE
// core (the fork path's per-member fixed cost).
func snapLayer(m layerSamples, seed uint64) error {
	build := func() *cpu.Core {
		ctrl := core.NewController(core.OptionsFor(core.NoisyXOR), seed)
		return newCore(cpu.FPGAConfig(), ctrl, experiment.NewDirPredictor("tage", ctrl), []string{"gcc", "calculix"}, seed)
	}
	var snapUS, restoreUS []float64
	var kib float64
	for rep := 0; rep < layerReps; rep++ {
		c := build()
		c.RunTargetInstructions(200_000)
		w := &snap.Writer{}
		snapUS = append(snapUS, nsPer(1, func() { c.Snapshot(w) })/1000)
		kib = float64(w.Len()) / 1024
		fresh := build()
		r := snap.NewReader(w.Bytes())
		restoreUS = append(restoreUS, nsPer(1, func() { fresh.Restore(r) })/1000)
		if err := r.Err(); err != nil {
			return fmt.Errorf("snapshot restore: %w", err)
		}
	}
	m["snap.core_snapshot_us"] = snapUS
	m["snap.core_restore_us"] = restoreUS
	m["snap.core_kib"] = []float64{kib}
	return nil
}

// fixtureBackend resolves every spec from the fixture store, capturing
// the specs and results it serves: it replays the figs-cold grid
// through the executor without simulating, and hands the wire layer
// real specs and results to work on.
type fixtureBackend struct {
	st      *runcache.Store
	mu      sync.Mutex
	specs   []wire.Spec
	raws    [][]byte
	results []wire.Result
}

func (b *fixtureBackend) Run(_ context.Context, spec wire.Spec) (wire.Result, error) {
	raw, ok := b.st.Get(spec.Key())
	if !ok {
		return wire.Result{}, fmt.Errorf("cell %s not in the fixture", spec.Key())
	}
	r, err := wire.DecodeResult(raw)
	if err != nil {
		return wire.Result{}, err
	}
	b.mu.Lock()
	b.specs = append(b.specs, spec)
	b.raws = append(b.raws, raw)
	b.results = append(b.results, r)
	b.mu.Unlock()
	return r, nil
}

// storeLayers measures runcache, wire, experiment and report on the
// fixture store.
func storeLayers(m layerSamples, seed uint64, fixture, scratch string) error {
	schema := experiment.SchemaVersion()
	var openUS []float64
	var st *runcache.Store
	for rep := 0; rep < layerReps; rep++ {
		start := time.Now()
		s, err := runcache.Open(fixture, schema)
		if err != nil {
			return err
		}
		if s.Len() == 0 {
			return fmt.Errorf("fixture store %s is empty", fixture)
		}
		openUS = append(openUS, float64(time.Since(start).Microseconds())/float64(s.Len()))
		st = s
	}
	m["runcache.open_us_per_entry"] = openUS

	sz := fullSizes(seed)
	exps := figExps(sz)
	fb := &fixtureBackend{st: st}
	exec := experiment.NewExecutorWith(1, fb)
	sess := experiment.NewSessionWith(sz.scale, exec)
	for _, e := range exps {
		if e.sims {
			_, _ = e.run(sess)
		}
	}
	if err := exec.Err(); err != nil {
		return err
	}

	// The re-render leaves out the characterization table, which
	// regenerates workloads instead of replaying; render_ms still
	// renders it, from one copy made here.
	var charTable *report.Table
	for _, e := range exps {
		if e.name == warmSkip {
			var err error
			if charTable, err = e.run(sess); err != nil {
				return err
			}
		}
	}
	resolved := exec.Runs()
	var planMS, rerenderMS, renderMS []float64
	var tables []*report.Table
	for rep := 0; rep < layerReps; rep++ {
		planMS = append(planMS, nsPer(1, func() {
			ps := experiment.NewSessionWith(sz.scale, experiment.NewPlanner())
			for _, e := range exps {
				if e.sims {
					_, _ = e.run(ps)
				}
			}
		})/1e6)
		var err error
		tables = tables[:0]
		rerenderMS = append(rerenderMS, nsPer(1, func() {
			for _, e := range exps {
				if e.name == warmSkip {
					continue
				}
				var tab *report.Table
				if tab, err = e.run(sess); err != nil {
					return
				}
				tab.Render()
				tables = append(tables, tab)
			}
		})/1e6)
		if err != nil {
			return err
		}
	}
	if exec.Runs() != resolved {
		return fmt.Errorf("re-render dispatched %d cells: the executor was not fully resolved", exec.Runs()-resolved)
	}
	tables = append(tables, charTable)
	for rep := 0; rep < layerReps; rep++ {
		renderMS = append(renderMS, nsPer(1, func() {
			for _, t := range tables {
				t.Render()
			}
		})/1e6)
	}
	m["experiment.plan_ms"] = planMS
	m["experiment.memo_rerender_ms"] = rerenderMS
	m["report.render_ms"] = renderMS

	n := len(fb.specs)
	keys := make([]string, n)
	for i, s := range fb.specs {
		keys[i] = s.Key()
	}
	var getNS, putUS, keyUS, encUS, decUS []float64
	for rep := 0; rep < layerReps; rep++ {
		getNS = append(getNS, nsPer(100*n, func() {
			for i := 0; i < 100; i++ {
				for _, k := range keys {
					st.Get(k)
				}
			}
		}))
		dir := filepath.Join(scratch, fmt.Sprintf("put-%d", rep))
		fresh, err := runcache.Open(dir, schema)
		if err != nil {
			return err
		}
		putUS = append(putUS, nsPer(n, func() {
			for i, k := range keys {
				if err = fresh.Put(k, fb.raws[i]); err != nil {
					return
				}
			}
		})/1000)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		keyUS = append(keyUS, nsPer(n, func() {
			for _, s := range fb.specs {
				s.Key()
			}
		})/1000)
		encUS = append(encUS, nsPer(n, func() {
			for _, r := range fb.results {
				r.Encode()
			}
		})/1000)
		decUS = append(decUS, nsPer(n, func() {
			for _, raw := range fb.raws {
				if _, err = wire.DecodeResult(raw); err != nil {
					return
				}
			}
		})/1000)
		if err != nil {
			return err
		}
	}
	m["runcache.get_ns"] = getNS
	m["runcache.put_us"] = putUS
	m["wire.spec_key_us"] = keyUS
	m["wire.result_encode_us"] = encUS
	m["wire.result_decode_us"] = decUS
	return nil
}
