package tage

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/snap"
	"xorbp/internal/store"
)

// LoopConfig sizes the loop predictor. The paper's TAGE_SC_L "loop
// predictor features 256 entries and is 4-way associative (256 × 52
// bits)" — 64 sets of 4 ways.
type LoopConfig struct {
	// SetBits is log2 of the set count (6 -> 64 sets).
	SetBits uint
	// Ways is the associativity.
	Ways uint
	// TagBits is the stored tag width.
	TagBits uint
	// IterBits is the iteration-counter width.
	IterBits uint
}

// DefaultLoopConfig matches the paper: 256 entries, 4-way, ~52-bit rows
// (14-bit tag, two 14-bit iteration counts, 2-bit confidence, valid and
// direction bits; an 8-bit age lives beside the row as replacement
// metadata).
func DefaultLoopConfig() *LoopConfig {
	return &LoopConfig{SetBits: 6, Ways: 4, TagBits: 14, IterBits: 14}
}

// loopScratch carries predict-time loop state to the update.
type loopScratch struct {
	way      int // way hit at predict, -1 = miss
	set      uint64
	tag      uint64
	pred     bool
	used     bool // prediction was confident enough to override
	predSeen bool // Predict ran for this branch (conditional path)
}

// LoopPredictor recognizes loop branches with regular trip counts and
// predicts their exit perfectly once confident. Entries are content-
// encoded and set-indexed through the scrambler like every other table.
type LoopPredictor struct {
	cfg   LoopConfig
	guard *core.Guard
	// rows[set*Ways+way], each a packed word in the WordArray.
	rows *store.WordArray
	age  []uint8 // architectural replacement metadata
	f    rowFields
}

// rowFields is the row layout, precomputed from the configuration so the
// per-branch pack/unpack is constant masks and shifts. Layout (LSB
// first): tag | past(IterBits) | current(IterBits) | conf(2) | dir(1) |
// valid(1).
type rowFields struct {
	tagMask, iterMask                 uint64
	pastAt, curAt, confAt, dirAt, vAt uint // bit offset of each field
	setMask                           uint64
	pcTagShift                        uint // pc bits above the set index form the tag
}

// newRowFields derives the row layout of a configuration.
func newRowFields(cfg LoopConfig) rowFields {
	tb, ib := cfg.TagBits, cfg.IterBits
	return rowFields{
		tagMask:    bitutil.Mask(tb),
		iterMask:   bitutil.Mask(ib),
		pastAt:     tb,
		curAt:      tb + ib,
		confAt:     tb + 2*ib,
		dirAt:      tb + 2*ib + 2,
		vAt:        tb + 2*ib + 3,
		setMask:    bitutil.Mask(cfg.SetBits),
		pcTagShift: pcShift + cfg.SetBits,
	}
}

func (l *LoopPredictor) unpackRow(w uint64) (tag, past, cur, conf, dir, valid uint64) {
	f := &l.f
	return w & f.tagMask, w >> f.pastAt & f.iterMask, w >> f.curAt & f.iterMask,
		w >> f.confAt & 3, w >> f.dirAt & 1, w >> f.vAt & 1
}

func (l *LoopPredictor) packRow(tag, past, cur, conf, dir, valid uint64) uint64 {
	f := &l.f
	return valid<<f.vAt | dir<<f.dirAt | conf<<f.confAt | cur<<f.curAt |
		past<<f.pastAt | tag&f.tagMask
}

// hit reports whether a row is valid and carries tag.
//
//bpvet:hotpath
func (l *LoopPredictor) hit(row, tag uint64) bool {
	return row>>l.f.vAt&1 == 1 && row&l.f.tagMask == tag
}

// NewLoopPredictor builds the loop predictor and registers it for flush
// events.
func NewLoopPredictor(cfg LoopConfig, ctrl *core.Controller) *LoopPredictor {
	l := &LoopPredictor{
		cfg:   cfg,
		guard: ctrl.Guard(0x100b, core.StructPHT),
		f:     newRowFields(cfg),
	}
	rowBits := cfg.TagBits + 2*cfg.IterBits + 2 + 1 + 1
	idxBits := cfg.SetBits + bitutil.Log2(uint64(cfg.Ways))
	if 1<<idxBits < uint64(cfg.Ways)<<cfg.SetBits {
		idxBits++
	}
	l.rows = store.NewWordArray(l.guard, idxBits, rowBits, 0)
	l.age = make([]uint8, 1<<idxBits)
	ctrl.Register(l, core.StructPHT)
	return l
}

func (l *LoopPredictor) set(d core.Domain, pc uint64) uint64 {
	return l.guard.ScrambleIndex(pc>>pcShift&l.f.setMask, d, l.cfg.SetBits)
}

func (l *LoopPredictor) tagOf(pc uint64) uint64 {
	return pc >> l.f.pcTagShift & l.f.tagMask
}

func (l *LoopPredictor) rowIdx(set uint64, way int) uint64 {
	return set*uint64(l.cfg.Ways) + uint64(way)
}

// Predict looks up pc. ok is true only when a confident entry hits; then
// pred is the loop-aware direction: the body direction until the recorded
// trip count is reached, the exit direction on the last iteration.
//
// Under an encoding mechanism a row written by another domain decodes as
// noise; its valid bit and tag gate with probability 2^-(TagBits+1), so
// cross-domain loop state is effectively invisible — the same isolation
// property as the other tables.
//
//bpvet:hotpath
func (l *LoopPredictor) Predict(d core.Domain, pc uint64, s *loopScratch) (pred, ok bool) {
	s.set = l.set(d, pc)
	s.tag = l.tagOf(pc)
	s.way = -1
	s.used = false
	s.predSeen = true
	for w := 0; w < int(l.cfg.Ways); w++ {
		row := l.rows.Get(d, l.rowIdx(s.set, w))
		if !l.hit(row, s.tag) {
			continue
		}
		_, past, cur, conf, dir, _ := l.unpackRow(row)
		s.way = w
		// Body direction until the known trip count, then the exit.
		s.pred = dir == 1
		if past != 0 && cur+1 >= past {
			s.pred = dir != 1
		}
		if conf == 3 && past != 0 {
			s.used = true
			return s.pred, true
		}
		return s.pred, false
	}
	return false, false
}

// Update trains the loop entry with the resolved outcome.
//
//bpvet:hotpath
func (l *LoopPredictor) Update(d core.Domain, pc uint64, taken bool, s *loopScratch) {
	if !s.predSeen {
		return
	}
	s.predSeen = false
	if s.way >= 0 {
		idx := l.rowIdx(s.set, s.way)
		l.rows.Update(d, idx, func(w uint64) uint64 {
			if !l.hit(w, s.tag) {
				return w // entry was reclaimed between predict and update
			}
			tag, past, cur, conf, dir, _ := l.unpackRow(w)
			body := dir == 1
			if taken == body {
				// Still inside the loop.
				cur++
				if cur >= l.f.iterMask {
					// Trip-count overflow: give up on this entry.
					l.age[idx] = 0
					return 0
				}
				if past != 0 && cur > past {
					// Ran longer than the recorded trip count.
					conf = 0
				}
			} else {
				// Loop exit observed.
				if past != 0 && cur+1 == past {
					if conf < 3 {
						conf++
					}
				} else {
					past = cur + 1
					conf = 0
				}
				cur = 0
			}
			if l.age[idx] < 255 {
				l.age[idx]++
			}
			return l.packRow(tag, past, cur, conf, dir, 1)
		})
		return
	}
	// Miss: allocate only for a taken branch (candidate loop-body
	// branch), replacing the youngest way.
	if !taken {
		return
	}
	victim, victimAge := 0, uint8(255)
	for w := 0; w < int(l.cfg.Ways); w++ {
		idx := l.rowIdx(s.set, w)
		if l.age[idx] < victimAge {
			victim, victimAge = w, l.age[idx]
		}
	}
	idx := l.rowIdx(s.set, victim)
	// dir=1: body taken, exit not-taken (the common loop shape). The
	// first iteration has already executed, hence cur=1.
	l.rows.Set(d, idx, l.packRow(s.tag, 0, 1, 0, 1, 1))
	l.age[idx] = 1
}

// FlushAll implements core.Flusher.
//
//bpvet:hotpath
func (l *LoopPredictor) FlushAll() {
	l.rows.FlushAll()
	for i := range l.age {
		l.age[i] = 0
	}
}

// FlushThread implements core.Flusher. Ages reset with the rows so the
// flushed sets are allocatable again.
//
//bpvet:hotpath
func (l *LoopPredictor) FlushThread(t core.HWThread) {
	l.rows.FlushThread(t)
	for i := range l.age {
		l.age[i] = 0
	}
}

// Snapshot writes the rows and age metadata.
func (l *LoopPredictor) Snapshot(w *snap.Writer) {
	l.rows.Snapshot(w)
	w.U8s(l.age)
}

// Restore replaces the rows and age metadata.
func (l *LoopPredictor) Restore(r *snap.Reader) {
	l.rows.Restore(r)
	r.U8sInto(l.age)
}

// Entries reports the row count (for the Precise Flush walk cost model).
func (l *LoopPredictor) Entries() uint64 { return l.rows.Len() }

// StorageBits reports row payload plus age metadata.
func (l *LoopPredictor) StorageBits() uint64 {
	return l.rows.StorageBits() + 8*uint64(len(l.age))
}
