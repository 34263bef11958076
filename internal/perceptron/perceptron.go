// Package perceptron implements the perceptron direction predictor
// (Jiménez & Lin, HPCA 2001): each branch hashes to a row of signed
// weights, the prediction is the sign of the dot product between the
// weights and the global history, and training nudges the weights when
// the prediction was wrong or the margin was below the threshold.
//
// It extends the reproduction's predictor set beyond the paper's four
// gem5 predictors (a ROADMAP item): a weight-table predictor stresses
// the isolation mechanisms differently from saturating-counter PHTs —
// content encoding garbles multi-bit signed weights rather than 2-bit
// counters, and a single branch's state spans a whole row.
//
// Every weight column is a secured WordArray, so Noisy-XOR-PHT applies
// exactly as it does to the other direction predictors: the row index
// passes through the domain's index scrambler and the stored weights
// through its content codec. The columns share one guard and geometry, so
// a row's weights share one word key (store.WordArray.Key).
package perceptron

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/store"
)

const pcShift = 2

// Config sizes a perceptron predictor.
type Config struct {
	// IndexBits is log2 of the row count.
	IndexBits uint
	// HistoryBits is the global history length; each row holds
	// HistoryBits+1 weights (one per history bit plus the bias).
	HistoryBits uint
	// WeightBits is the signed weight width (stored offset-binary).
	WeightBits uint
}

// DefaultConfig is an 8.3 KB table: 512 rows x 13 8-bit weights,
// comparable to the paper's gem5 predictor budgets (2-6.3 KB tables,
// Table: Figure 10).
func DefaultConfig() Config {
	return Config{IndexBits: 9, HistoryBits: 12, WeightBits: 8}
}

// Perceptron is the predictor. weights[0] is the bias column;
// weights[1..HistoryBits] pair with the history bits, newest first.
type Perceptron struct {
	cfg   Config
	guard *core.Guard

	weights []*store.WordArray
	theta   int // training threshold: floor(1.93*h + 14)

	ghr     [core.MaxHWThreads]uint64
	scratch [core.MaxHWThreads]scratch
}

// scratch carries predict-time state to the update.
type scratch struct {
	row  uint64 // physical (post-scramble) row index
	hist uint64 // history snapshot the prediction used
	sum  int    // margin, for threshold training
}

// New builds a perceptron predictor registered for flush events.
func New(cfg Config, ctrl *core.Controller) *Perceptron {
	p := &Perceptron{
		cfg:   cfg,
		guard: ctrl.Guard(0x9e4c, core.StructPHT),
		theta: int(1.93*float64(cfg.HistoryBits)) + 14,
	}
	// Offset-binary zero: a flushed table predicts weakly not-taken with
	// no history bias, like the other predictors' weak reset states.
	zero := uint64(1) << (cfg.WeightBits - 1)
	p.weights = make([]*store.WordArray, cfg.HistoryBits+1)
	for i := range p.weights {
		p.weights[i] = store.NewWordArray(p.guard, cfg.IndexBits, cfg.WeightBits, zero)
	}
	ctrl.Register(p, core.StructPHT)
	return p
}

// Name implements predictor.DirPredictor.
func (p *Perceptron) Name() string { return "perceptron" }

// row computes the physical row index for (d, pc).
func (p *Perceptron) row(d core.Domain, pc uint64) uint64 {
	logical := (pc >> pcShift) & bitutil.Mask(p.cfg.IndexBits)
	return p.guard.ScrambleIndex(logical, d, p.cfg.IndexBits)
}

// decode maps a stored offset-binary weight to its signed value.
func (p *Perceptron) decode(stored uint64) int {
	return int(stored) - (1 << (p.cfg.WeightBits - 1))
}

// encode maps a signed weight back to storage, saturating at the width.
func (p *Perceptron) encode(w int) uint64 {
	bias := 1 << (p.cfg.WeightBits - 1)
	if w > bias-1 {
		w = bias - 1
	}
	if w < -bias {
		w = -bias
	}
	return uint64(w + bias)
}

// Predict implements predictor.DirPredictor. Every weight column shares
// one guard and geometry, so the row's word key is derived once for all
// of them.
//
//bpvet:hotpath
func (p *Perceptron) Predict(d core.Domain, pc uint64) bool {
	row := p.row(d, pc)
	hist := p.ghr[d.Thread]
	k := p.weights[0].Key(d, row)
	sum := p.decode(p.weights[0].GetWith(k, row))
	for i, col := range p.weights[1:] {
		// Add the weight when history bit i is set and subtract it
		// otherwise, as a conditional negate: neg is 0 or -1.
		w := p.decode(col.GetWith(k, row))
		neg := int(hist>>i&1) - 1
		sum += w ^ neg - neg
	}
	p.scratch[d.Thread] = scratch{row: row, hist: hist, sum: sum}
	return sum >= 0
}

// Update implements predictor.DirPredictor: threshold training against
// the predict-time scratch state, then history shift.
//
//bpvet:hotpath
func (p *Perceptron) Update(d core.Domain, pc uint64, taken bool) {
	s := p.scratch[d.Thread]
	predicted := s.sum >= 0
	margin := s.sum
	if margin < 0 {
		margin = -margin
	}
	if predicted != taken || margin <= p.theta {
		// The row key is derived again rather than carried from Predict:
		// a key rotation in between must be honored.
		k := p.weights[0].Key(d, s.row)
		p.weights[0].UpdateWith(d, k, s.row, func(v uint64) uint64 {
			return p.encode(p.decode(v) + step(taken))
		})
		for i, col := range p.weights[1:] {
			h := s.hist>>i&1 == 1
			col.UpdateWith(d, k, s.row, func(v uint64) uint64 {
				return p.encode(p.decode(v) + step(h == taken))
			})
		}
	}
	p.ghr[d.Thread] = p.ghr[d.Thread]<<1 | b2u(taken)
}

// step is the per-weight training delta: +1 when the history bit (or
// the branch itself, for the bias weight) agreed with the outcome.
func step(agree bool) int {
	if agree {
		return 1
	}
	return -1
}

// FlushAll implements core.Flusher.
//
//bpvet:hotpath
func (p *Perceptron) FlushAll() {
	for _, w := range p.weights {
		w.FlushAll()
	}
}

// FlushThread implements core.Flusher; like the PHTs, weight rows carry
// no owner bits, so this degrades to whatever the arrays track.
//
//bpvet:hotpath
func (p *Perceptron) FlushThread(t core.HWThread) {
	for _, w := range p.weights {
		w.FlushThread(t)
	}
}

// Snapshot writes every weight column and the per-thread histories
// (scratch is predict-to-update carry state, dead at cycle boundaries).
func (p *Perceptron) Snapshot(w *snap.Writer) {
	for _, col := range p.weights {
		col.Snapshot(w)
	}
	for i := range p.ghr {
		w.U64(p.ghr[i])
	}
}

// Restore replaces the weight columns and histories.
func (p *Perceptron) Restore(r *snap.Reader) {
	for _, col := range p.weights {
		col.Restore(r)
	}
	for i := range p.ghr {
		p.ghr[i] = r.U64()
	}
}

// StorageBits implements predictor.DirPredictor.
func (p *Perceptron) StorageBits() uint64 {
	var total uint64
	for _, w := range p.weights {
		total += w.StorageBits()
	}
	return total
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var _ predictor.DirPredictor = (*Perceptron)(nil)
var _ core.Flusher = (*Perceptron)(nil)

// PredictUpdate implements predictor.PredictUpdater: the fused
// predict-then-train call the simulator dispatches once per conditional
// branch (identical to Predict followed by Update).
//
//bpvet:hotpath
func (p *Perceptron) PredictUpdate(d core.Domain, pc uint64, taken bool) bool {
	pred := p.Predict(d, pc)
	p.Update(d, pc, taken)
	return pred
}

var _ predictor.PredictUpdater = (*Perceptron)(nil)
