package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/wire"
)

// tracer instruments one traced sample from the benchmark's side of
// the package boundary: spans around the calls the sample makes, the
// executor's RunRecord hook for cell spans, a JournalSink observer for
// the resolved results, and (fleet-pull) timing decorators on the
// leader's and the workers' backends. None of it changes an execution
// path: the decorators never wrap the executor's LocalBackend, which is
// what the fork path keys on.
//
// Every method is a no-op on a nil *tracer, so untraced samples run the
// same code.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	cur     string // experiment span in progress, tags cell records
	cells   []cellObs
	results map[string]wire.Result

	dispatch *timedBackend // fleet-pull: leader side
	sims     []*timedBackend

	// metrics holds the traced per-layer metrics this sample produced.
	metrics map[string]float64
}

type span struct {
	name, cat  string
	start, end time.Time
}

// cellObs is one resolved cell as the record hook saw it.
type cellObs struct {
	exp string
	rec experiment.RunRecord
	end time.Time
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), results: make(map[string]wire.Result), metrics: make(map[string]float64)}
}

// span times fn as a span of the given category.
func (t *tracer) span(name, cat string, fn func()) {
	if t == nil {
		fn()
		return
	}
	if cat == "experiment" {
		t.mu.Lock()
		t.cur = name
		t.mu.Unlock()
	}
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name, cat, start, end})
	t.mu.Unlock()
}

// attach installs the cell-record hook and the result observer. Call
// before the executor's first batch.
func (t *tracer) attach(exec *experiment.Executor) {
	if t == nil {
		return
	}
	exec.SetRecord(func(r experiment.RunRecord) {
		end := time.Now()
		t.mu.Lock()
		t.cells = append(t.cells, cellObs{t.cur, r, end})
		t.mu.Unlock()
	})
	exec.SetJournal(t)
}

// Completed implements experiment.JournalSink.
func (t *tracer) Completed(key string, res wire.Result) {
	t.mu.Lock()
	t.results[key] = res
	t.mu.Unlock()
}

// executed returns the durations (ms) of cells that ran, not replayed.
func (t *tracer) executed() []float64 {
	var ms []float64
	for _, c := range t.cells {
		if !c.rec.Cached {
			ms = append(ms, c.rec.DurationMS)
		}
	}
	return ms
}

// finishCells records the sample's cell-time distribution and how busy
// the executor's workers were.
func (t *tracer) finishCells(res *sampleResult, workers int) {
	if t == nil {
		return
	}
	ms := t.executed()
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	p := "experiment." + res.Workload + "."
	t.metrics[p+"cell_ms_p50"] = percentile(ms, 50)
	t.metrics[p+"cell_ms_p99"] = percentile(ms, 99)
	t.metrics[p+"busy_share"] = sum / 1000 / (res.WallS * float64(workers))
}

// attackCells records the median cell time of every attack in the
// traced secsweep grid (labels read "attack=<name> ...").
func (t *tracer) attackCells() {
	if t == nil {
		return
	}
	by := make(map[string][]float64)
	for _, c := range t.cells {
		if c.rec.Cached {
			continue
		}
		name, ok := strings.CutPrefix(strings.Fields(c.rec.Label)[0], "attack=")
		if ok {
			by[name] = append(by[name], c.rec.DurationMS)
		}
	}
	for name, ms := range by {
		t.metrics["attack."+name+".cell_ms"] = median(ms)
	}
}

// timedBackend is a backend decorator recording each Run's duration.
type timedBackend struct {
	inner experiment.Backend
	mu    sync.Mutex
	ms    []float64
}

func (b *timedBackend) Run(ctx context.Context, spec wire.Spec) (wire.Result, error) {
	start := time.Now()
	r, err := b.inner.Run(ctx, spec)
	d := float64(time.Since(start)) / float64(time.Millisecond)
	b.mu.Lock()
	b.ms = append(b.ms, d)
	b.mu.Unlock()
	return r, err
}

// durations returns a copy of the recorded durations (ms).
func (b *timedBackend) durations() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.ms...)
}

// wrapDispatch decorates the leader-side backend (traced samples only).
func (t *tracer) wrapDispatch(b experiment.Backend) experiment.Backend {
	if t == nil {
		return b
	}
	t.dispatch = &timedBackend{inner: b}
	return t.dispatch
}

// wrapSim decorates one worker's simulation backend (traced samples
// only). Workers never fork, so wrapping their LocalBackend changes
// nothing they execute.
func (t *tracer) wrapSim(b experiment.Backend) experiment.Backend {
	if t == nil {
		return b
	}
	tb := &timedBackend{inner: b}
	t.mu.Lock()
	t.sims = append(t.sims, tb)
	t.mu.Unlock()
	return tb
}

// fleetMetrics records the pull fleet's dispatch latency (submit to
// result at the leader, queue wait included) and the share of the
// workers' time not spent simulating: claim, lease, HTTP, JSON and
// idle-poll waits. With bpsim's deep submission window most dispatch
// time is queue wait, so the share is taken against the workers' wall
// time, not against the summed dispatch latencies.
func (t *tracer) fleetMetrics(f *pullFleet, wallS float64) {
	if t == nil || t.dispatch == nil {
		return
	}
	var simMS float64
	for _, b := range t.sims {
		for _, v := range b.durations() {
			simMS += v
		}
	}
	var specs, claims uint64
	for _, w := range f.workers {
		specs += w.Runs() + w.Replays()
		claims += w.Claims()
	}
	dispatch := t.dispatch.durations()
	t.metrics["fleet.dispatch_ms_p50"] = percentile(dispatch, 50)
	t.metrics["fleet.dispatch_ms_p99"] = percentile(dispatch, 99)
	t.metrics["fleet.overhead_share"] = 1 - simMS/1000/(wallS*float64(len(f.workers)))
	if claims > 0 {
		t.metrics["fleet.specs_per_claim"] = float64(specs) / float64(claims)
	}
}

// attrGroup totals the event counts of figs-cold cells that share a
// predictor cost (predictor, encoding class) and a cycle-loop cost
// (core shape), with warmup scaled in.
type attrGroup struct {
	Pred         string  `json:"pred"`
	Enc          string  `json:"enc"` // "base", "xor" or "noisy"
	CPU          string  `json:"cpu"` // "single", "smt2" or "smt4"
	CondBranches float64 `json:"cond_branches"`
	Instructions float64 `json:"instructions"`
	CellMS       float64 `json:"cell_ms"`
}

// attribute groups the executed figs-cold cells for the parent's
// residual: counts come from the observed results; the warmup, which
// no result counts, is scaled in from the measured window (single core:
// the target's warmup goal over its measured instructions; SMT: the
// total user-instruction goal over the measured total). Fork-family
// cells (the re-key sweep's encoded members) are left out: their
// durations cover only the tail after a restored prefix.
func (t *tracer) attribute(res *sampleResult, sc experiment.Scale) {
	if t == nil {
		return
	}
	groups := make(map[[3]string]*attrGroup)
	for _, c := range t.cells {
		if c.rec.Cached {
			continue
		}
		f := labelFields(c.rec.Label)
		if c.exp == "rekey" && f["mech"] != "Baseline" {
			continue
		}
		r, ok := t.results[c.rec.Key]
		if !ok {
			continue
		}
		instr := r.Target.Instructions
		cond := r.Target.CondBranches
		for _, o := range r.Others {
			instr += o.Instructions
			cond += o.CondBranches
		}
		var scale float64
		shape := "single"
		if f["cfg"] == "fpga-boom" {
			scale = float64(sc.WarmupInstr+r.Target.Instructions) / float64(r.Target.Instructions)
		} else {
			scale = float64(sc.SMTWarmupInstr+instr) / float64(instr)
			shape = "smt" + strconv.Itoa(len(strings.Split(f["threads"], "+")))
		}
		enc := "base"
		if f["scope"] == "PHT" || f["scope"] == "BP" {
			switch f["mech"] {
			case "XOR-BP":
				enc = "xor"
			case "Noisy-XOR-BP":
				enc = "noisy"
			}
		}
		k := [3]string{f["pred"], enc, shape}
		g := groups[k]
		if g == nil {
			g = &attrGroup{Pred: k[0], Enc: k[1], CPU: k[2]}
			groups[k] = g
		}
		g.CondBranches += float64(cond) * scale
		g.Instructions += float64(instr) * scale
		g.CellMS += c.rec.DurationMS
	}
	for _, g := range groups {
		res.Attribution = append(res.Attribution, *g)
	}
	sort.Slice(res.Attribution, func(i, j int) bool {
		a, b := res.Attribution[i], res.Attribution[j]
		return a.Pred+a.Enc+a.CPU < b.Pred+b.Enc+b.CPU
	})
}

// labelFields parses a performance cell label ("<mechanism> scope=..
// pred=.. cfg=.. timer=.. threads=..") into its fields, the mechanism
// under "mech".
func labelFields(label string) map[string]string {
	fs := strings.Fields(label)
	m := map[string]string{}
	if len(fs) > 0 {
		m["mech"] = fs[0]
	}
	for _, f := range fs[1:] {
		if k, v, ok := strings.Cut(f, "="); ok {
			m[k] = v
		}
	}
	return m
}

// traceEvent is one Chrome trace-event "complete" event (ph "X").
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the sample started
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// write saves the sample's spans as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing). Calls and set-up phases sit on tid 0;
// executed cells are packed onto tids 1.. so concurrent cells do not
// overlap. Replayed cells took no simulation time and are not drawn.
func (t *tracer) write(path string) error {
	us := func(tm time.Time) float64 { return float64(tm.Sub(t.t0)) / float64(time.Microsecond) }
	var evs []traceEvent
	for _, s := range t.spans {
		evs = append(evs, traceEvent{Name: s.name, Cat: s.cat, Ph: "X", TS: us(s.start),
			Dur: us(s.end) - us(s.start), PID: 1})
	}
	type cellSpan struct {
		ts, dur float64
		c       cellObs
	}
	var cs []cellSpan
	for _, c := range t.cells {
		if c.rec.Cached {
			continue
		}
		dur := c.rec.DurationMS * 1000
		cs = append(cs, cellSpan{us(c.end) - dur, dur, c})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].ts < cs[j].ts })
	var laneEnd []float64
	for _, c := range cs {
		lane := -1
		for i, e := range laneEnd {
			if e <= c.ts {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = c.ts + c.dur
		evs = append(evs, traceEvent{Name: c.c.rec.Label, Cat: "cell", Ph: "X", TS: c.ts, Dur: c.dur,
			PID: 1, TID: 1 + lane, Args: map[string]string{"key": c.c.rec.Key, "experiment": c.c.exp}})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
