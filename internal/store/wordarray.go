// Package store provides the secured storage primitives on which every
// predictor table is built: packed arrays of n-bit logical entries whose
// physical words pass through the isolation Guard's content codec on every
// access, plus the per-entry owner tracking Precise Flush requires.
//
// The word-granularity layout mirrors the paper's observation that "the
// physical implementation of the table using SRAM is most likely using a
// wider row already" (§5.2): a 4K-entry 2-bit PHT is physically 128
// 64-bit words here, and Enhanced-XOR-PHT encodes whole words with a
// word-indexed key schedule.
package store

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/snap"
)

// WordArray is an array of 2^indexBits logical entries, each entryBits
// wide (1..64, power-of-two packing within 64-bit words). All reads and
// writes are mediated by the Guard: contents are encoded with the
// accessing domain's content key (XOR-BP) and, for sub-word entries, the
// word-indexed Enhanced schedule when enabled.
//
// Index scrambling is deliberately NOT applied here: tables differ in
// which bits form the index (PC bits, history hashes, ...), so predictors
// scramble indexes themselves via Guard.ScrambleIndex before calling Get
// and Set. WordArray is purely the content-encoding layer.
type WordArray struct {
	guard     *core.Guard
	words     []uint64
	entryBits uint
	perWord   uint // logical entries per 64-bit word
	indexBits uint
	initWords []uint64 // physical word pattern restored by a flush

	// Hot-path precomputation: perWord is always a power of two (64 is
	// only divisible by powers of two; awkward widths use one entry per
	// word), so locate reduces to two constant-masked shifts. plain
	// records a pass-through guard, letting Get skip the codec entirely —
	// Get/Set are the innermost operations of every predictor access.
	wordShift uint   // log2(perWord)
	bitShift  uint   // (idx << bitShift) & 63 is the entry's bit offset: log2(entryBits) when packed, 6 (offset 0) otherwise
	entryMask uint64 // Mask(entryBits)
	plain     bool   // guard performs no content encoding

	// owners tracks the hardware thread that last wrote each *word* (the
	// paper's Precise Flush augments entries with thread IDs; tracking at
	// word granularity models the SRAM-row reality and is strictly
	// coarser, i.e. flushes at least as much). nil unless the guard's
	// mechanism needs it.
	owners []core.HWThread
	valid  []bool
}

// NewWordArray builds an array of 2^indexBits entries of entryBits bits.
// initValue is the per-entry reset value (e.g. a weak saturating-counter
// state); it is replicated into every word on construction and on flushes.
func NewWordArray(guard *core.Guard, indexBits, entryBits uint, initValue uint64) *WordArray {
	return NewWordArrayInit(guard, indexBits, entryBits,
		func(uint64) uint64 { return initValue })
}

// NewWordArrayInit builds an array whose reset value varies per entry
// (initFn maps entry index to reset value). Hardware uses this for
// structures whose entries must reset to distinct values — e.g. a local
// history table reset to the row index so freshly-flushed branches do not
// all alias onto the zero-pattern counter.
func NewWordArrayInit(guard *core.Guard, indexBits, entryBits uint, initFn func(idx uint64) uint64) *WordArray {
	if entryBits == 0 || entryBits > 64 {
		panic("store: entry width out of range")
	}
	// Divisor widths pack 64/entryBits entries per word; awkward widths
	// (11, 52, ...) get one entry per word, which only costs simulator
	// memory, not modelled SRAM bits.
	perWord := uint(1)
	if 64%entryBits == 0 {
		perWord = 64 / entryBits
	}
	entries := uint(1) << indexBits
	nWords := (entries + perWord - 1) / perWord

	a := &WordArray{
		guard:     guard,
		words:     make([]uint64, nWords),
		entryBits: entryBits,
		perWord:   perWord,
		indexBits: indexBits,
		initWords: make([]uint64, nWords),
		wordShift: bitutil.Log2(uint64(perWord)),
		bitShift:  6,
		entryMask: bitutil.Mask(entryBits),
		plain:     !guard.Encodes(),
	}
	if perWord > 1 {
		// Packed layouts only exist for power-of-two entry widths (the
		// divisors of 64), and perWord*entryBits == 64, so the slot's bit
		// offset (idx mod perWord)*entryBits is (idx*entryBits) mod 64.
		a.bitShift = bitutil.Log2(uint64(entryBits))
	}
	for idx := uint64(0); idx < uint64(entries); idx++ {
		word, shift := a.locate(idx)
		a.initWords[word] |= (initFn(idx) & bitutil.Mask(entryBits)) << shift
	}
	copy(a.words, a.initWords)
	if guard.TracksOwners() {
		a.owners = make([]core.HWThread, nWords)
		a.valid = make([]bool, nWords)
	}
	return a
}

// Len returns the number of logical entries.
func (a *WordArray) Len() uint64 { return 1 << a.indexBits }

// IndexBits returns the index width in bits.
func (a *WordArray) IndexBits() uint { return a.indexBits }

// EntryBits returns the logical entry width in bits.
func (a *WordArray) EntryBits() uint { return a.entryBits }

// locate maps a logical index to (word, bit offset). Both shift counts
// are masked to 63, which they never exceed, so neither shift needs the
// oversized-count fixup Go otherwise emits.
func (a *WordArray) locate(idx uint64) (word uint64, shift uint) {
	return idx >> (a.wordShift & 63), uint(idx<<(a.bitShift&63)) & 63
}

// Get reads entry idx as domain d, decoding the containing word with d's
// content key. Reading a word written by a different domain (or before a
// key rotation) therefore yields noise — the content-isolation property.
// Get inlines into predictor lookup loops: the pass-through case is a
// predicted branch and a masked load, the encoded case one out-of-line
// call.
//
//bpvet:hotpath
func (a *WordArray) Get(d core.Domain, idx uint64) uint64 {
	return a.read(d, idx, (*WordArray).getEncoded)
}

// read is Get's body. The encoded path arrives as a function parameter
// because the inliner prices a call through a parameter at 17 against 57
// for a static call, and that difference is what fits the pass-through
// read and the fallback into one inlinable function; once inlined, the
// argument is the constant getEncoded.
//
//bpvet:hotpath
func (a *WordArray) read(d core.Domain, idx uint64, encoded func(*WordArray, core.Domain, uint64) uint64) uint64 {
	if a.plain {
		return a.words[idx>>(a.wordShift&63)] >> (idx << a.bitShift & 63) & a.entryMask
	}
	return encoded(a, d, idx)
}

// getEncoded is Get's out-of-line path under an encoding guard.
//
//bpvet:hotpath
func (a *WordArray) getEncoded(d core.Domain, idx uint64) uint64 {
	word, shift := a.locate(idx)
	k := a.guard.WordKey(d, word)
	return a.guard.DecodeWith(a.words[word], k) >> shift & a.entryMask
}

// Key returns the codec key of the word holding entry idx under domain d
// (Guard.WordKey). Arrays built on the same guard with the same geometry
// (index and entry width) share word keys, so a predictor reading one row
// across several such columns — the perceptron's weights — derives the
// key once and passes it to GetWith/UpdateWith on each. The key must be
// derived again for every access: one carried from a prediction to its
// update would miss a key rotation in between.
//
//bpvet:hotpath
func (a *WordArray) Key(d core.Domain, idx uint64) core.Key {
	return a.guard.WordKey(d, idx>>a.wordShift)
}

// GetWith reads entry idx, decoding with k = Key(d, idx) of this array or
// of one sharing its guard and geometry.
//
//bpvet:hotpath
func (a *WordArray) GetWith(k core.Key, idx uint64) uint64 {
	word, shift := a.locate(idx)
	return a.guard.DecodeWith(a.words[word], k) >> shift & a.entryMask
}

// Set writes entry idx as domain d: the containing word is decoded,
// modified, and re-encoded with d's key, modelling the hardware
// read-modify-write of a sub-word update (§5.2 "the original counter needs
// to be read out of the PHT (and decoded) first before being updated,
// re-encoded, and written back"). The word key is derived once for both
// directions.
//
//bpvet:hotpath
func (a *WordArray) Set(d core.Domain, idx uint64, v uint64) {
	word, shift := a.locate(idx)
	k := a.guard.WordKey(d, word)
	m := a.entryMask << shift
	w := a.guard.DecodeWith(a.words[word], k)
	a.words[word] = a.guard.EncodeWith(w&^m|(v<<shift)&m, k)
	a.own(word, d.Thread)
}

// Update applies fn to entry idx under domain d in one decode/encode pass,
// deriving the word key once for both directions.
//
//bpvet:hotpath
func (a *WordArray) Update(d core.Domain, idx uint64, fn func(uint64) uint64) {
	word, shift := a.locate(idx)
	k := a.guard.WordKey(d, word)
	w := a.guard.DecodeWith(a.words[word], k)
	m := a.entryMask << shift
	w = w&^m | fn(w>>shift&a.entryMask)<<shift&m
	a.words[word] = a.guard.EncodeWith(w, k)
	a.own(word, d.Thread)
}

// UpdateWith is Update with the word key k supplied by the caller, under
// the same contract as GetWith. (Its body repeats Update's rather than
// sharing a helper: the codec's interface fallbacks put any shared
// read-modify-write over the inlining budget, and Update is too hot to
// pay a second call.)
//
//bpvet:hotpath
func (a *WordArray) UpdateWith(d core.Domain, k core.Key, idx uint64, fn func(uint64) uint64) {
	word, shift := a.locate(idx)
	w := a.guard.DecodeWith(a.words[word], k)
	m := a.entryMask << shift
	w = w&^m | fn(w>>shift&a.entryMask)<<shift&m
	a.words[word] = a.guard.EncodeWith(w, k)
	a.own(word, d.Thread)
}

// own records thread t as the last writer of a word (Precise Flush
// owner tracking; a no-op on arrays without it).
//
//bpvet:hotpath
func (a *WordArray) own(word uint64, t core.HWThread) {
	if a.owners != nil {
		a.owners[word] = t
		a.valid[word] = true
	}
}

// FlushAll resets every entry to the init value (Complete Flush).
//
//bpvet:hotpath
func (a *WordArray) FlushAll() {
	copy(a.words, a.initWords)
	if a.owners != nil {
		for i := range a.valid {
			a.valid[i] = false
		}
	}
}

// FlushThread resets words last written by thread t (Precise Flush). On an
// array without owner tracking it degrades to FlushAll, mirroring the
// paper's point that precise flushing requires the extra thread-ID state.
//
//bpvet:hotpath
func (a *WordArray) FlushThread(t core.HWThread) {
	if a.owners == nil {
		a.FlushAll()
		return
	}
	for i := range a.words {
		if a.valid[i] && a.owners[i] == t {
			a.words[i] = a.initWords[i]
			a.valid[i] = false
		}
	}
}

// Snapshot writes the physical words and, when owner tracking is active,
// the per-word owner/valid metadata. Words are serialized exactly as
// stored — still encoded under whatever keys were live — so a snapshot
// round-trips byte-identically without consulting the guard; the key file
// restores separately and the pairing stays consistent.
func (a *WordArray) Snapshot(w *snap.Writer) {
	w.U64s(a.words)
	w.Bool(a.owners != nil)
	if a.owners != nil {
		for i := range a.owners {
			w.U8(uint8(a.owners[i]))
			w.Bool(a.valid[i])
		}
	}
}

// Restore replaces the physical words and owner metadata. The snapshot
// must come from an array of identical geometry and owner-tracking mode.
func (a *WordArray) Restore(r *snap.Reader) {
	r.U64sInto(a.words)
	tracked := r.Bool()
	if tracked != (a.owners != nil) {
		r.Fail("owner tracking mismatch: snapshot %v, array %v", tracked, a.owners != nil)
		return
	}
	if a.owners != nil {
		for i := range a.owners {
			a.owners[i] = core.HWThread(r.U8())
			a.valid[i] = r.Bool()
		}
	}
}

// StorageBits returns the number of SRAM bits the array occupies
// (logical payload only, excluding owner metadata), for the hardware cost
// model and for configuration reporting.
func (a *WordArray) StorageBits() uint64 {
	return uint64(a.Len()) * uint64(a.entryBits)
}
