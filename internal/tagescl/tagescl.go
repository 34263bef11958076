// Package tagescl implements TAGE_SC_L (Seznec [40]), the most accurate
// predictor evaluated in the paper (66.6 KB in the gem5 configuration):
// a TAGE core, the loop predictor, and a Multi-GEHL statistical corrector
// combining global-history, recent-run (IMLI-like) and local-history
// components (Figure 6b).
//
// Every table — TAGE's, the loop predictor's, the corrector's GEHL tables
// and the local history table — is accessed through the isolation guard:
// contents encoded with the domain's content key, indexes scrambled with
// its index key, exactly as Figure 6(b) draws.
//
// Substitution note (EXPERIMENTS.md, "Model substitutions"): the
// reference TAGE-SC-L derives its backward-branch and IMLI components
// from branch *targets*, which the direction-predictor interface does
// not carry; those components are approximated by a taken-run-length
// (IMLI-like) history. This preserves
// the relevant property — TAGE_SC_L is the most accurate and therefore
// pays the largest isolation cost (§6.3 observation 3).
package tagescl

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/store"
	"xorbp/internal/tage"
)

const pcShift = 2

// Config sizes the TAGE-SC-L predictor.
type Config struct {
	// TAGE is the core configuration.
	TAGE tage.Config
	// SCIndexBits is log2 of each GEHL component table.
	SCIndexBits uint
	// SCCtrBits is the GEHL counter width.
	SCCtrBits uint
	// GlobalLens are the global-history lengths of the GEHL components.
	GlobalLens []uint
	// LocalBits is the per-branch local history length of the local GEHL
	// components; the local history table has 256 entries (Figure 6b).
	LocalBits uint
}

// Gem5Config is the paper's 66.6 KB TAGE_SC_L.
func Gem5Config() Config {
	return Config{
		TAGE: tage.Config{
			Name:     "tage_sc_l",
			BaseBits: 13,
			// Approximates the paper's bank-interleaved organization (ten
			// 1K banks of 12-bit entries + twenty 1K banks of 16-bit
			// entries) with eight 1K short-history tables and eight 2K
			// long-history tables — the same ~66 KB budget and history
			// reach.
			TableBits: []uint{10, 10, 10, 10, 10, 10, 10, 10, 11, 11, 11, 11, 11, 11, 11, 11},
			TagBits:   []uint{8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15},
			// The first twelve lengths match LTAGE's ladder; four longer
			// tables extend the reach (the paper's 3000-bit history is
			// scaled with the table budget).
			HistLengths: []uint{
				4, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403,
				640, 880, 1200, 1600, 1800,
			},
			UResetPeriod: 256 * 1024,
			Loop:         tage.DefaultLoopConfig(),
			Seed:         0x5c1,
		},
		SCIndexBits: 11,
		SCCtrBits:   6,
		GlobalLens:  []uint{13, 33},
		LocalBits:   11,
	}
}

// scThread is the per-hardware-thread corrector state.
type scThread struct {
	hist   *bitutil.History // corrector's own global history
	folds  []bitutil.Folded // per global component (by value: hot update loop)
	runLen uint64           // IMLI-like: current taken-run length
	s      scScratch
}

// scScratch carries predict-time corrector state to the update.
type scScratch struct {
	sum      int
	thrUsed  int
	scPred   bool
	tagePred bool
	loopUsed bool
	final    bool
	idx      []uint64 // per component, physical indexes
}

// TAGESCL is the predictor.
type TAGESCL struct {
	cfg Config
	t   *tage.TAGE

	guards []*core.Guard
	tables []*store.WordArray // component counter tables
	nComp  int                // bias + len(GlobalLens) + run + 1 local

	guardLH   *core.Guard
	localHist *store.WordArray // 256 x LocalBits

	threshold int
	tc        bitutil.SignedCounter

	threads [core.MaxHWThreads]*scThread
}

// New builds a TAGE-SC-L predictor registered for flush events.
func New(cfg Config, ctrl *core.Controller) *TAGESCL {
	p := &TAGESCL{
		cfg:       cfg,
		t:         tage.New(cfg.TAGE, ctrl),
		guardLH:   ctrl.Guard(0x5c1f, core.StructPHT),
		threshold: 6,
		tc:        bitutil.NewSignedCounter(6, 0),
	}
	p.nComp = 1 + len(cfg.GlobalLens) + 1 + 1 // bias, globals, run, local
	for i := 0; i < p.nComp; i++ {
		g := ctrl.Guard(0x5c00+uint64(i), core.StructPHT)
		p.guards = append(p.guards, g)
		// Counters stored biased by 2^(SCCtrBits-1); init to the midpoint
		// (logical zero).
		tab := store.NewWordArray(g, cfg.SCIndexBits, cfg.SCCtrBits, 1<<(cfg.SCCtrBits-1))
		p.tables = append(p.tables, tab)
		ctrl.Register(tab, core.StructPHT)
	}
	p.localHist = store.NewWordArray(p.guardLH, 8, cfg.LocalBits, 0)
	ctrl.Register(p.localHist, core.StructPHT)
	return p
}

// Name implements predictor.DirPredictor.
func (p *TAGESCL) Name() string { return p.cfg.TAGE.Name }

// state returns the per-thread corrector state; after a thread's first
// branch it is one array load and a nil check, inlined into the hot path.
//
//bpvet:hotpath
func (p *TAGESCL) state(th core.HWThread) *scThread {
	if ts := p.threads[th]; ts != nil {
		return ts
	}
	return p.newState(th)
}

// newState creates a thread's corrector state on its first touch.
//
//bpvet:coldinit allocates once per hardware thread on first touch
func (p *TAGESCL) newState(th core.HWThread) *scThread {
	maxLen := uint(0)
	for _, l := range p.cfg.GlobalLens {
		if l > maxLen {
			maxLen = l
		}
	}
	ts := &scThread{
		hist: bitutil.NewHistory(maxLen + 1),
		s:    scScratch{idx: make([]uint64, p.nComp)},
	}
	for _, l := range p.cfg.GlobalLens {
		ts.folds = append(ts.folds, *bitutil.NewFolded(l, p.cfg.SCIndexBits))
	}
	p.threads[th] = ts
	return ts
}

// ctrValue converts a stored biased counter to its signed value.
func (p *TAGESCL) ctrValue(stored uint64) int {
	return int(stored) - (1 << (p.cfg.SCCtrBits - 1))
}

// componentIndexes computes each component's physical table index.
func (p *TAGESCL) componentIndexes(ts *scThread, d core.Domain, pc uint64, idx []uint64) {
	b := p.cfg.SCIndexBits
	pcb := pc >> pcShift
	k := 0
	// Bias component: PC only.
	idx[k] = p.guards[k].ScrambleIndex(pcb&bitutil.Mask(b), d, b)
	k++
	// Global components: PC x folded global history.
	for i := range p.cfg.GlobalLens {
		logical := (pcb ^ ts.folds[i].Value() ^ (pcb >> 3)) & bitutil.Mask(b)
		idx[k] = p.guards[k].ScrambleIndex(logical, d, b)
		k++
	}
	// Run-length (IMLI-like) component.
	logical := (pcb ^ (ts.runLen << 4) ^ (ts.runLen >> 2)) & bitutil.Mask(b)
	idx[k] = p.guards[k].ScrambleIndex(logical, d, b)
	k++
	// Local component: PC x per-branch local history.
	lhIdx := p.guardLH.ScrambleIndex(pcb&bitutil.Mask(8), d, 8)
	lh := p.localHist.Get(d, lhIdx)
	logical = (pcb ^ (lh << 2) ^ lh) & bitutil.Mask(b)
	idx[k] = p.guards[k].ScrambleIndex(logical, d, b)
}

// Predict implements predictor.DirPredictor.
//
//bpvet:hotpath
func (p *TAGESCL) Predict(d core.Domain, pc uint64) bool {
	ts := p.state(d.Thread)
	s := &ts.s

	s.tagePred = p.t.Predict(d, pc)
	s.loopUsed = p.t.ProviderIsLoop(d.Thread)
	if s.loopUsed {
		// A confident loop prediction is final (the "L" ordering).
		s.final = s.tagePred
		return s.final
	}

	p.componentIndexes(ts, d, pc, s.idx)
	sum := 0
	for k := 0; k < p.nComp; k++ {
		c := p.ctrValue(p.tables[k].Get(d, s.idx[k]))
		w := 1
		if k == 0 {
			// The PC-indexed bias component carries double weight, as in
			// the reference predictor's multiple bias tables.
			w = 2
		}
		sum += w * (2*c + 1)
	}
	// The TAGE prediction enters the sum weighted by its confidence.
	conf := p.t.LastConfidence(d.Thread)
	bias := 4 * (1 + conf)
	if s.tagePred {
		sum += bias
	} else {
		sum -= bias
	}
	s.sum = sum
	s.thrUsed = p.threshold
	s.scPred = sum >= 0

	if abs(sum) >= p.threshold {
		s.final = s.scPred
	} else {
		s.final = s.tagePred
	}
	return s.final
}

// Update implements predictor.DirPredictor.
//
//bpvet:hotpath
func (p *TAGESCL) Update(d core.Domain, pc uint64, taken bool) {
	ts := p.state(d.Thread)
	s := &ts.s

	if !s.loopUsed {
		// Threshold adaptation: when SC and TAGE disagreed, track which
		// was right. The rise is deliberately much faster than the decay:
		// after a key rotation the corrector tables decode as large-
		// magnitude noise, and the threshold must outrun the garbage sums
		// quickly so TAGE regains control while the counters retrain (the
		// role Seznec's adaptive update threshold plays in the reference
		// predictor).
		if s.scPred != s.tagePred {
			if s.scPred == taken {
				p.tc.Update(true)
				if p.tc.Value() == p.tc.Max() {
					if p.threshold > 4 {
						p.threshold--
					}
					p.tc.Set(0)
				}
			} else if abs(s.sum) >= s.thrUsed {
				// Only a wrong *override* escalates: the fast rise exists
				// to strip garbage counters of their veto, not to punish
				// weak sums that never won.
				p.threshold += 4
				if p.threshold > 300 {
					p.threshold = 300
				}
			} else {
				p.tc.Update(false)
				if p.tc.Value() == p.tc.Min() {
					p.threshold++
					p.tc.Set(0)
				}
			}
		}
		// Train components whenever the corrector itself was wrong or the
		// sum was weak (the reference update rule; keying on the
		// corrector's own prediction washes out stale counters quickly,
		// which matters after a key rotation leaves them as noise).
		if s.scPred != taken || abs(s.sum) < s.thrUsed {
			for k := 0; k < p.nComp; k++ {
				p.tables[k].Update(d, s.idx[k], func(v uint64) uint64 {
					c := p.ctrValue(v)
					if taken {
						if c < (1<<(p.cfg.SCCtrBits-1))-1 {
							c++
						}
					} else if c > -(1 << (p.cfg.SCCtrBits - 1)) {
						c--
					}
					return uint64(c + (1 << (p.cfg.SCCtrBits - 1)))
				})
			}
		}
		// Per-branch local history.
		pcb := pc >> pcShift
		lhIdx := p.guardLH.ScrambleIndex(pcb&bitutil.Mask(8), d, 8)
		p.localHist.Update(d, lhIdx, func(v uint64) uint64 {
			return (v<<1 | b2u(taken)) & bitutil.Mask(p.cfg.LocalBits)
		})
	}

	// TAGE core update (also advances its own histories and the loop
	// predictor).
	p.t.Update(d, pc, taken)

	// Corrector histories.
	ts.hist.Push(taken)
	for i := range ts.folds {
		ts.folds[i].Update(ts.hist)
	}
	// IMLI-like counter, capped so long runs map to a stable index (index
	// reuse is what lets the component retrain after a key rotation).
	if taken {
		if ts.runLen < 31 {
			ts.runLen++
		}
	} else {
		ts.runLen = 0
	}
}

// Flush handling: every constituent table (TAGE's, the loop predictor's,
// the SC tables, the local history table) registers its own flusher with
// the controller at construction, so flush events reach them directly.

// Snapshot writes the TAGE core, the corrector tables and local history,
// the adaptive threshold state, and each lazily-created thread's corrector
// history (scratch is predict-to-update carry state, dead at cycle
// boundaries).
func (p *TAGESCL) Snapshot(w *snap.Writer) {
	p.t.Snapshot(w)
	for _, tab := range p.tables {
		tab.Snapshot(w)
	}
	p.localHist.Snapshot(w)
	w.I64(int64(p.threshold))
	p.tc.Snapshot(w)
	for th := range p.threads {
		ts := p.threads[th]
		w.Bool(ts != nil)
		if ts == nil {
			continue
		}
		ts.hist.Snapshot(w)
		for i := range ts.folds {
			ts.folds[i].Snapshot(w)
		}
		w.U64(ts.runLen)
	}
}

// Restore replaces the predictor's mutable state, recreating thread
// states through the lazy constructor so geometry always matches.
func (p *TAGESCL) Restore(r *snap.Reader) {
	p.t.Restore(r)
	for _, tab := range p.tables {
		tab.Restore(r)
	}
	p.localHist.Restore(r)
	p.threshold = int(r.I64())
	p.tc.Restore(r)
	for th := range p.threads {
		if !r.Bool() {
			p.threads[th] = nil
			continue
		}
		ts := p.state(core.HWThread(th))
		ts.hist.Restore(r)
		for i := range ts.folds {
			ts.folds[i].Restore(r)
		}
		ts.runLen = r.U64()
	}
}

// StorageBits implements predictor.DirPredictor.
func (p *TAGESCL) StorageBits() uint64 {
	total := p.t.StorageBits() + p.localHist.StorageBits()
	for _, tab := range p.tables {
		total += tab.StorageBits()
	}
	return total
}

// Entries reports the logical entry count across TAGE, the corrector
// tables and the local history table (for the Precise Flush walk cost
// model).
func (p *TAGESCL) Entries() uint64 {
	n := p.t.Entries() + p.localHist.Len()
	for _, tab := range p.tables {
		n += tab.Len()
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var _ predictor.DirPredictor = (*TAGESCL)(nil)

// PredictUpdate implements predictor.PredictUpdater: the fused
// predict-then-train call the simulator dispatches once per conditional
// branch (identical to Predict followed by Update).
//
//bpvet:hotpath
func (p *TAGESCL) PredictUpdate(d core.Domain, pc uint64, taken bool) bool {
	pred := p.Predict(d, pc)
	p.Update(d, pc, taken)
	return pred
}

var _ predictor.PredictUpdater = (*TAGESCL)(nil)
