// Package tage implements the TAGE family core: a base bimodal predictor
// plus tagged tables indexed with geometrically increasing history
// lengths (Seznec [39]). LTAGE adds the loop predictor. The package
// provides both the FPGA prototype configuration (Table 2: "TAGE: 33 KB,
// 6 × 4096 entries, history length: 12, 27, 44, 63, 90, 130") and the
// gem5 32 KB LTAGE.
//
// Isolation hooks follow Figure 6: every table (base, tagged, loop) is
// accessed through its own guard — indexes scrambled with the domain's
// index key, entries content-encoded with the domain's content key. The
// usefulness (u) bits are replacement metadata, kept architectural
// (unencoded) like the BTB's LRU state; only predictive payload —
// tag and counter — is encoded.
package tage

import (
	"math/bits"

	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/rng"
	"xorbp/internal/snap"
	"xorbp/internal/store"
)

const pcShift = 2

// Config sizes a TAGE predictor.
type Config struct {
	// Name is the reported predictor name ("tage", "ltage").
	Name string
	// BaseBits is log2 of the base bimodal table.
	BaseBits uint
	// TableBits[i] is log2 of tagged table i's entry count.
	TableBits []uint
	// TagBits[i] is tagged table i's tag width.
	TagBits []uint
	// HistLengths[i] is the (geometric) history length of table i,
	// shortest first.
	HistLengths []uint
	// UResetPeriod is the number of updates between usefulness-bit aging
	// passes.
	UResetPeriod uint64
	// Loop enables the loop predictor (LTAGE).
	Loop *LoopConfig
	// Seed drives the allocation tie-break randomness.
	Seed uint64
}

// FPGAConfig is the paper's FPGA prototype direction predictor (Table 2).
func FPGAConfig() Config {
	return Config{
		Name:         "tage",
		BaseBits:     12,
		TableBits:    []uint{12, 12, 12, 12, 12, 12},
		TagBits:      []uint{8, 8, 9, 10, 11, 12},
		HistLengths:  []uint{12, 27, 44, 63, 90, 130},
		UResetPeriod: 256 * 1024,
		Seed:         0x7a6e,
	}
}

// LTAGEConfig is the gem5 32 KB LTAGE (Table 2).
func LTAGEConfig() Config {
	return Config{
		Name:         "ltage",
		BaseBits:     13,
		TableBits:    []uint{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
		TagBits:      []uint{7, 7, 8, 8, 9, 10, 11, 12, 12, 13, 14, 15},
		HistLengths:  []uint{4, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640},
		UResetPeriod: 256 * 1024,
		Loop:         DefaultLoopConfig(),
		Seed:         0x17a6e,
	}
}

// Tagged entry word layout: [ ctr(3) | tag(n) ]. Usefulness lives in a
// separate architectural array.
const ctrBits = 3

// threadState is the per-hardware-thread state: the raw history register,
// the folded images used for indexing and tagging, and the scratch that
// carries a prediction's provider metadata to its update.
//
// The folds are lane-packed: one flat slice of 3*nTab images laid out as
// three parallel lanes in table order — index folds in [0, nTab), first
// tag folds in [nTab, 2*nTab), second tag folds in [2*nTab, 3*nTab). The
// per-branch fold advance (the simulator's hottest loop) gathers each
// table's leaving history bit once into outs, then streams each lane
// through bitutil.FoldLane: three tight register-resident loops over
// contiguous Folded values, with no per-table struct hop.
type threadState struct {
	hist  *bitutil.History
	folds []bitutil.Folded // 3*nTab images in three lanes (idx, t0, t1)
	outs  []uint64         // per-table leaving-bit scratch for the fold pass
	s     scratch
}

// scratch carries the prediction's provider metadata to the update. It
// holds table positions and counter values, never decoded words or keys:
// the update re-reads and re-encodes under whatever keys are live then.
type scratch struct {
	baseIdx   uint64
	baseCtr   uint64
	basePred  bool
	provider  int // tagged table index, -1 = base
	provIdx   uint64
	provCtr   uint64
	provPred  bool
	altTable  int // -1 = base
	altIdx    uint64
	altPred   bool
	usedAlt   bool
	finalPred bool
	// per-table values computed at predict time (for allocation)
	indexes []uint64
	tags    []uint64
	ctrs    []uint64

	loop loopScratch
}

// table bundles one tagged table's hot-path state: geometry masks and
// shifts precomputed at construction, the guard, the storage and the
// usefulness column. One slice of these replaces seven parallel slices,
// so the per-branch table walk performs one bounds check per table.
type table struct {
	arr     *store.WordArray
	guard   *core.Guard
	u       []uint8 // usefulness per physical entry (architectural)
	bits    uint    // log2 entries
	tagBits uint
	histLen uint
	idxMask uint64
	tagMask uint64
	pcFold  uint // precomputed bits - i%bits shift of the index hash
}

// TAGE is the predictor.
type TAGE struct {
	cfg    Config
	nTab   int
	guardB *core.Guard // base table
	base   *store.WordArray
	tabs   []table

	loop *LoopPredictor

	useAltOnNA bitutil.SignedCounter
	tick       uint64 // updates so far
	ageIn      uint64 // updates until the next usefulness aging; 0 = never
	alloc      *rng.Xoshiro256

	threads [core.MaxHWThreads]*threadState
}

// New builds a TAGE (or LTAGE, when cfg.Loop is set) predictor and
// registers it for flush events.
func New(cfg Config, ctrl *core.Controller) *TAGE {
	n := len(cfg.TableBits)
	if n == 0 || len(cfg.TagBits) != n || len(cfg.HistLengths) != n {
		panic("tage: inconsistent table configuration")
	}
	if n >= 64 {
		panic("tage: more tagged tables than the lookup's hit mask holds")
	}
	t := &TAGE{
		cfg:        cfg,
		nTab:       n,
		guardB:     ctrl.Guard(0x7a60, core.StructPHT),
		useAltOnNA: bitutil.NewSignedCounter(4, 0),
		alloc:      rng.NewXoshiro256(cfg.Seed),
	}
	t.base = store.NewWordArray(t.guardB, cfg.BaseBits, 2, 1)
	for i := 0; i < n; i++ {
		g := ctrl.Guard(0x7a61+uint64(i), core.StructPHT)
		width := cfg.TagBits[i] + ctrBits
		bits := cfg.TableBits[i]
		t.tabs = append(t.tabs, table{
			arr:     store.NewWordArray(g, bits, width, 0),
			guard:   g,
			u:       make([]uint8, 1<<bits),
			bits:    bits,
			tagBits: cfg.TagBits[i],
			histLen: cfg.HistLengths[i],
			idxMask: bitutil.Mask(bits),
			tagMask: bitutil.Mask(cfg.TagBits[i]),
			pcFold:  bits - uint(i)%bits,
		})
	}
	if cfg.Loop != nil {
		t.loop = NewLoopPredictor(*cfg.Loop, ctrl)
	}
	t.ageIn = t.ageCountdown()
	ctrl.Register(t, core.StructPHT)
	return t
}

// Name implements predictor.DirPredictor.
func (t *TAGE) Name() string { return t.cfg.Name }

// maxHist returns the longest configured history.
func (t *TAGE) maxHist() uint { return t.cfg.HistLengths[t.nTab-1] }

// state returns the per-thread state. After a thread's first branch it
// is one array load and a nil check, inlined into Predict and Update.
//
//bpvet:hotpath
func (t *TAGE) state(th core.HWThread) *threadState {
	if ts := t.threads[th]; ts != nil {
		return ts
	}
	return t.newState(th)
}

// newState creates a thread's history state on its first touch.
//
//bpvet:coldinit allocates once per hardware thread on first touch
func (t *TAGE) newState(th core.HWThread) *threadState {
	n := t.nTab
	ts := &threadState{
		hist:  bitutil.NewHistory(t.maxHist() + 1),
		folds: make([]bitutil.Folded, 3*n),
		outs:  make([]uint64, n),
		s: scratch{
			indexes: make([]uint64, n),
			tags:    make([]uint64, n),
			ctrs:    make([]uint64, n),
		},
	}
	for i := 0; i < n; i++ {
		ts.folds[i] = *bitutil.NewFolded(t.cfg.HistLengths[i], t.cfg.TableBits[i])
		ts.folds[n+i] = *bitutil.NewFolded(t.cfg.HistLengths[i], t.cfg.TagBits[i])
		ts.folds[2*n+i] = *bitutil.NewFolded(t.cfg.HistLengths[i], t.cfg.TagBits[i]-1)
	}
	t.threads[th] = ts
	return ts
}

// unpack splits a tagged entry word into (tag, ctr).
func (t *TAGE) unpack(i int, w uint64) (tag, ctr uint64) {
	tb := &t.tabs[i]
	return w & tb.tagMask, (w >> tb.tagBits) & bitutil.Mask(ctrBits)
}

// pack builds a tagged entry word.
func (t *TAGE) pack(i int, tag, ctr uint64) uint64 {
	tb := &t.tabs[i]
	return (ctr << tb.tagBits) | (tag & tb.tagMask)
}

// Predict implements predictor.DirPredictor.
//
//bpvet:hotpath
func (t *TAGE) Predict(d core.Domain, pc uint64) bool {
	ts := t.state(d.Thread)
	s := &ts.s

	// Base prediction.
	baseLogical := (pc >> pcShift) & bitutil.Mask(t.cfg.BaseBits)
	s.baseIdx = t.guardB.ScrambleIndex(baseLogical, d, t.cfg.BaseBits)
	s.baseCtr = t.base.Get(d, s.baseIdx)
	s.basePred = s.baseCtr >= 2

	// Look up every tagged table — index hash, tag and entry — and
	// gather the tag matches into a bit mask. The provider is the
	// longest-history hit and the alternate the next longest: the top
	// two set bits. A longest-first scan stopping at the alternate would
	// skip some hashes, but it branches on every table's tag compare,
	// which the host mispredicts at every provider; this loop has no
	// data-dependent branch. Every per-table slice is cut to the same n,
	// so the loop carries no bounds checks, and every shift count is
	// masked to 63, which it never exceeds, so no shift needs the
	// oversized-count fixup.
	n := t.nTab
	p := pc >> pcShift
	tabs := t.tabs[:n]
	idxF, t0F, t1F := ts.folds[:n], ts.folds[n:][:n], ts.folds[2*n:][:n]
	indexes, tags, ctrs := s.indexes[:n], s.tags[:n], s.ctrs[:n]
	var hits uint64
	for i := range tabs {
		tb := &tabs[i]
		idx := tb.guard.ScrambleIndex((p^p>>(tb.pcFold&63)^idxF[i].Value())&tb.idxMask, d, tb.bits)
		tag := (p ^ t0F[i].Value() ^ t1F[i].Value()<<1) & tb.tagMask
		w := tb.arr.Get(d, idx)
		indexes[i], tags[i], ctrs[i] = idx, tag, w>>(tb.tagBits&63)&bitutil.Mask(ctrBits)
		var hit uint64
		if w&tb.tagMask == tag {
			hit = 1
		}
		hits |= hit << (uint(i) & 63)
	}
	// uint(-1) shifts the provider bit out entirely when nothing hit.
	s.provider = bits.Len64(hits) - 1
	s.altTable = bits.Len64(hits&^(1<<uint(s.provider))) - 1
	s.usedAlt = false
	if s.provider == -1 {
		s.finalPred = s.basePred
	} else {
		s.provIdx = indexes[s.provider]
		s.provCtr = ctrs[s.provider]
		s.provPred = s.provCtr >= 4
		if s.altTable == -1 {
			s.altPred = s.basePred
		} else {
			s.altIdx = indexes[s.altTable]
			s.altPred = ctrs[s.altTable] >= 4
		}
		// A "newly allocated" provider (weak counter) defers to the
		// alternate prediction when USEALT says alternates have been more
		// reliable.
		weak := s.provCtr == 3 || s.provCtr == 4
		if weak && t.useAltOnNA.Value() >= 0 {
			s.usedAlt = true
			s.finalPred = s.altPred
		} else {
			s.finalPred = s.provPred
		}
	}

	// The loop predictor overrides TAGE when confident (LTAGE).
	if t.loop != nil {
		if pred, ok := t.loop.Predict(d, pc, &s.loop); ok {
			s.finalPred = pred
		}
	}
	return s.finalPred
}

// Update implements predictor.DirPredictor.
//
//bpvet:hotpath
func (t *TAGE) Update(d core.Domain, pc uint64, taken bool) {
	ts := t.state(d.Thread)
	s := &ts.s

	if t.loop != nil {
		t.loop.Update(d, pc, taken, &s.loop)
	}

	if s.provider >= 0 {
		// Train USEALT on newly-allocated weak providers that disagreed
		// with the alternate.
		weak := s.provCtr == 3 || s.provCtr == 4
		if weak && s.provPred != s.altPred {
			t.useAltOnNA.Update(s.altPred == taken)
		}
		// Train the provider counter.
		i := s.provider
		t.tabs[i].arr.Update(d, s.provIdx, func(w uint64) uint64 {
			tag, ctr := t.unpack(i, w)
			return t.pack(i, tag, bump3(ctr, taken))
		})
		// Usefulness: provider distinguished itself from the alternate.
		if s.provPred != s.altPred {
			uc := &t.tabs[i].u[s.provIdx]
			if s.provPred == taken {
				if *uc < 3 {
					*uc++
				}
			} else if *uc > 0 {
				*uc--
			}
		}
		// When the weak provider deferred to a tagged alternate, train the
		// alternate too.
		if s.usedAlt && s.altTable >= 0 {
			j := s.altTable
			t.tabs[j].arr.Update(d, s.altIdx, func(w uint64) uint64 {
				tag, ctr := t.unpack(j, w)
				return t.pack(j, tag, bump3(ctr, taken))
			})
		}
		// When the alternate was the base predictor and it was consulted,
		// train the base.
		if s.usedAlt && s.altTable == -1 {
			t.updateBase(d, s, taken)
		}
	} else {
		t.updateBase(d, s, taken)
	}

	// Allocate on a misprediction, in a table with longer history.
	if s.finalPred != taken && s.provider < t.nTab-1 {
		t.allocate(d, s, taken)
	}

	// Periodic usefulness aging keeps allocation possible: every
	// UResetPeriod-th update, counted down rather than divided out of
	// tick.
	t.tick++
	if t.ageIn != 0 {
		t.ageIn--
		if t.ageIn == 0 {
			t.ageUsefulness()
			t.ageIn = t.cfg.UResetPeriod
		}
	}

	// Advance history: raw register first, then the folded images. The
	// leaving bits are gathered once per table, then the three fold lanes
	// stream through FoldLane back to back — the lane-packed form of the
	// per-table triple update (see threadState).
	ts.hist.Push(taken)
	in := b2u64(taken)
	n := t.nTab
	outs := ts.outs[:n]
	for i := range t.tabs[:n] {
		outs[i] = ts.hist.Bit(t.tabs[i].histLen)
	}
	bitutil.FoldLane(ts.folds[:n], in, outs)
	bitutil.FoldLane(ts.folds[n:2*n], in, outs)
	bitutil.FoldLane(ts.folds[2*n:], in, outs)
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (t *TAGE) updateBase(d core.Domain, s *scratch, taken bool) {
	t.base.Update(d, s.baseIdx, func(v uint64) uint64 { return bump2(v, taken) })
}

// allocate claims an entry with u==0 in a longer-history table, with a
// random skip so consecutive allocations spread across tables (Seznec's
// policy). When every candidate is useful, their u counters are decayed
// instead — the anti-ping-pong rule.
func (t *TAGE) allocate(d core.Domain, s *scratch, taken bool) {
	start := s.provider + 1
	// Random skip: with probability 1/2 start one table later (if room),
	// emulating the weighted table choice of the reference code.
	if start < t.nTab-1 && t.alloc.Uint64()&1 == 0 {
		start++
	}
	for i := start; i < t.nTab; i++ {
		idx := s.indexes[i]
		if t.tabs[i].u[idx] == 0 {
			ctr := uint64(3)
			if taken {
				ctr = 4
			}
			t.tabs[i].arr.Set(d, idx, t.pack(i, s.tags[i], ctr))
			return
		}
	}
	for i := start; i < t.nTab; i++ {
		if uc := &t.tabs[i].u[s.indexes[i]]; *uc > 0 {
			*uc--
		}
	}
}

// ageCountdown returns the number of updates until the next aging pass
// after tick updates: aging fires on the update that brings tick to a
// multiple of UResetPeriod. 0 when aging is off.
func (t *TAGE) ageCountdown() uint64 {
	if t.cfg.UResetPeriod == 0 {
		return 0
	}
	return t.cfg.UResetPeriod - t.tick%t.cfg.UResetPeriod
}

// ageUsefulness halves every u counter. The reference predictors
// periodically reset u so stale entries can be reclaimed.
func (t *TAGE) ageUsefulness() {
	for i := range t.tabs {
		u := t.tabs[i].u
		for j := range u {
			u[j] >>= 1
		}
	}
}

// FlushAll implements core.Flusher.
//
//bpvet:hotpath
func (t *TAGE) FlushAll() {
	t.base.FlushAll()
	for i := range t.tabs {
		t.tabs[i].arr.FlushAll()
		u := t.tabs[i].u
		for j := range u {
			u[j] = 0
		}
	}
	// The loop predictor registers its own flusher with the controller.
}

// FlushThread implements core.Flusher. Usefulness metadata is cleared
// wholesale: it has no owner tags, and leaving stale high u values would
// block the flushed thread's re-allocations (a flush must restore
// allocatability, as a hardware flush of the metadata column would).
//
//bpvet:hotpath
func (t *TAGE) FlushThread(th core.HWThread) {
	t.base.FlushThread(th)
	for i := range t.tabs {
		t.tabs[i].arr.FlushThread(th)
		u := t.tabs[i].u
		for j := range u {
			u[j] = 0
		}
	}
}

// Snapshot writes the base and tagged tables (words plus usefulness), the
// USEALT counter, the aging tick, the allocation RNG, the loop predictor
// when configured, and each lazily-created thread's history state. The
// per-thread scratch is predict-to-update carry state, dead at cycle
// boundaries, and is not serialized; the aging countdown is derived from
// the tick.
func (t *TAGE) Snapshot(w *snap.Writer) {
	t.base.Snapshot(w)
	for i := range t.tabs {
		t.tabs[i].arr.Snapshot(w)
		w.U8s(t.tabs[i].u)
	}
	t.useAltOnNA.Snapshot(w)
	w.U64(t.tick)
	t.alloc.Snapshot(w)
	if t.loop != nil {
		t.loop.Snapshot(w)
	}
	for th := range t.threads {
		ts := t.threads[th]
		w.Bool(ts != nil)
		if ts == nil {
			continue
		}
		ts.hist.Snapshot(w)
		for i := range ts.folds {
			ts.folds[i].Snapshot(w)
		}
	}
}

// Restore replaces the predictor's mutable state. Thread states absent
// from the snapshot are dropped; present ones are (re)created through the
// same lazy constructor the predictor uses, so geometry always matches.
func (t *TAGE) Restore(r *snap.Reader) {
	t.base.Restore(r)
	for i := range t.tabs {
		t.tabs[i].arr.Restore(r)
		r.U8sInto(t.tabs[i].u)
	}
	t.useAltOnNA.Restore(r)
	t.tick = r.U64()
	t.ageIn = t.ageCountdown()
	t.alloc.Restore(r)
	if t.loop != nil {
		t.loop.Restore(r)
	}
	for th := range t.threads {
		if !r.Bool() {
			t.threads[th] = nil
			continue
		}
		ts := t.state(core.HWThread(th))
		ts.hist.Restore(r)
		for i := range ts.folds {
			ts.folds[i].Restore(r)
		}
	}
}

// StorageBits implements predictor.DirPredictor. Usefulness bits (2 per
// tagged entry) count toward storage.
func (t *TAGE) StorageBits() uint64 {
	total := t.base.StorageBits()
	for i := range t.tabs {
		total += t.tabs[i].arr.StorageBits() + 2*uint64(len(t.tabs[i].u))
	}
	if t.loop != nil {
		total += t.loop.StorageBits()
	}
	return total
}

// ProviderIsLoop reports whether the last prediction on thread th was
// overridden by the loop predictor (diagnostics, and the TAGE-SC-L
// combination rule: a confident loop prediction is final).
//
//bpvet:hotpath
func (t *TAGE) ProviderIsLoop(th core.HWThread) bool {
	ts := t.threads[th]
	return ts != nil && t.loop != nil && ts.s.loop.used
}

// LastConfidence grades the last prediction on thread th: 0 (weak),
// 1 (medium) or 2 (high), from the provider counter's distance to its
// midpoint. The statistical corrector weighs the TAGE prediction by this
// grade.
//
//bpvet:hotpath
func (t *TAGE) LastConfidence(th core.HWThread) int {
	ts := t.threads[th]
	if ts == nil {
		return 0
	}
	s := &ts.s
	if t.loop != nil && s.loop.used {
		return 2
	}
	var dist uint64
	if s.provider >= 0 {
		// ctr in 0..7; distance of 2*ctr+1 from the midpoint 8, in 1..7.
		c := 2*s.provCtr + 1
		if c >= 8 {
			dist = c - 8
		} else {
			dist = 8 - c
		}
		switch {
		case dist >= 5:
			return 2
		case dist >= 3:
			return 1
		default:
			return 0
		}
	}
	// Base provider: saturated counters are medium confidence at best.
	if s.baseCtr == 0 || s.baseCtr == 3 {
		return 1
	}
	return 0
}

// Entries reports the logical entry count across the base, tagged and
// loop tables (for the Precise Flush walk cost model).
func (t *TAGE) Entries() uint64 {
	n := t.base.Len()
	for i := range t.tabs {
		n += t.tabs[i].arr.Len()
	}
	if t.loop != nil {
		n += t.loop.Entries()
	}
	return n
}

func bump2(v uint64, up bool) uint64 {
	if up {
		if v < 3 {
			return v + 1
		}
		return v
	}
	if v > 0 {
		return v - 1
	}
	return 0
}

func bump3(v uint64, up bool) uint64 {
	if up {
		if v < 7 {
			return v + 1
		}
		return v
	}
	if v > 0 {
		return v - 1
	}
	return 0
}

var _ predictor.DirPredictor = (*TAGE)(nil)
var _ core.Flusher = (*TAGE)(nil)

// PredictUpdate implements predictor.PredictUpdater: the fused
// predict-then-train call the simulator dispatches once per conditional
// branch (identical to Predict followed by Update).
//
//bpvet:hotpath
func (t *TAGE) PredictUpdate(d core.Domain, pc uint64, taken bool) bool {
	pred := t.Predict(d, pc)
	t.Update(d, pc, taken)
	return pred
}

var _ predictor.PredictUpdater = (*TAGE)(nil)
