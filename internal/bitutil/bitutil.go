// Package bitutil provides the small hardware-flavoured building blocks
// shared by every predictor in this repository: saturating counters,
// global/path/local history registers, the folded (cyclic-shift-register)
// histories used by TAGE-family indexing, and a Zipf sampler used by the
// workload generators.
package bitutil

import (
	"math"

	"xorbp/internal/rng"
	"xorbp/internal/snap"
)

// SatCounter is an n-bit unsigned saturating counter, the basic storage
// cell of pattern history tables. The zero value is a 2-bit counter at 0.
type SatCounter struct {
	value uint8
	max   uint8
}

// NewSatCounter returns an n-bit counter (1 <= bits <= 8) initialized to v.
func NewSatCounter(bits uint, v uint8) SatCounter {
	if bits == 0 || bits > 8 {
		panic("bitutil: SatCounter width out of range")
	}
	c := SatCounter{max: uint8(1<<bits - 1)}
	c.Set(v)
	return c
}

// Inc increments towards the maximum, saturating.
//
//bpvet:hotpath
func (c *SatCounter) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec decrements towards zero, saturating.
//
//bpvet:hotpath
func (c *SatCounter) Dec() {
	if c.value > 0 {
		c.value--
	}
}

// Update increments on taken, decrements otherwise.
//
//bpvet:hotpath
func (c *SatCounter) Update(taken bool) {
	if taken {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Taken reports the predicted direction: the counter's MSB.
//
//bpvet:hotpath
func (c *SatCounter) Taken() bool { return c.value > c.max/2 }

// Value returns the raw counter value.
//
//bpvet:hotpath
func (c *SatCounter) Value() uint8 { return c.value }

// Max returns the saturation ceiling.
//
//bpvet:hotpath
func (c *SatCounter) Max() uint8 { return c.max }

// Set clamps v into range and stores it.
//
//bpvet:hotpath
func (c *SatCounter) Set(v uint8) {
	if c.max == 0 {
		c.max = 3 // zero value behaves as a 2-bit counter
	}
	if v > c.max {
		v = c.max
	}
	c.value = v
}

// Weak reports whether the counter is in one of the two central (weak)
// states. For even widths this is the pair around the midpoint.
//
//bpvet:hotpath
func (c *SatCounter) Weak() bool {
	mid := c.max / 2
	return c.value == mid || c.value == mid+1
}

// Snapshot writes the counter value (the width is static configuration).
func (c *SatCounter) Snapshot(w *snap.Writer) { w.U8(c.value) }

// Restore replaces the counter value, clamped to the configured width so a
// corrupt snapshot cannot produce an out-of-range counter.
func (c *SatCounter) Restore(r *snap.Reader) {
	v := r.U8()
	if c.max != 0 && v > c.max {
		v = c.max
	}
	c.value = v
}

// SignedCounter is an n-bit signed saturating counter in
// [-2^(bits-1), 2^(bits-1)-1], used by TAGE usefulness/USEALT counters and
// GEHL weight tables.
type SignedCounter struct {
	value int16
	min   int16
	max   int16
}

// NewSignedCounter returns a signed counter of the given width (2..15 bits)
// initialized to v (clamped).
func NewSignedCounter(bits uint, v int16) SignedCounter {
	if bits < 2 || bits > 15 {
		panic("bitutil: SignedCounter width out of range")
	}
	c := SignedCounter{
		min: -(1 << (bits - 1)),
		max: 1<<(bits-1) - 1,
	}
	c.Set(v)
	return c
}

// Inc saturating-increments.
//
//bpvet:hotpath
func (c *SignedCounter) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec saturating-decrements.
//
//bpvet:hotpath
func (c *SignedCounter) Dec() {
	if c.value > c.min {
		c.value--
	}
}

// Update increments on up, decrements otherwise.
//
//bpvet:hotpath
func (c *SignedCounter) Update(up bool) {
	if up {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Value returns the current value.
//
//bpvet:hotpath
func (c *SignedCounter) Value() int16 { return c.value }

// Set clamps v into range and stores it.
//
//bpvet:hotpath
func (c *SignedCounter) Set(v int16) {
	if c.min == 0 && c.max == 0 {
		c.min, c.max = -4, 3 // zero value behaves as 3-bit
	}
	if v < c.min {
		v = c.min
	}
	if v > c.max {
		v = c.max
	}
	c.value = v
}

// Min and Max return the saturation bounds.
//
//bpvet:hotpath
func (c *SignedCounter) Min() int16 { return c.min }

// Max returns the upper saturation bound.
//
//bpvet:hotpath
func (c *SignedCounter) Max() int16 { return c.max }

// Snapshot writes the counter value.
func (c *SignedCounter) Snapshot(w *snap.Writer) { w.U16(uint16(c.value)) }

// Restore replaces the counter value, clamped to the configured range.
func (c *SignedCounter) Restore(r *snap.Reader) {
	v := int16(r.U16())
	if c.min != 0 || c.max != 0 {
		if v < c.min {
			v = c.min
		}
		if v > c.max {
			v = c.max
		}
	}
	c.value = v
}

// History is a register of the most recent branch outcomes, bounded to a
// configured length: the long histories TAGE-family predictors index with
// (1801 bits for TAGE-SC-L). Bit 0 is the most recent outcome.
//
// Logically it is a shift register; physically it is a ring of
// power-of-two size, so Push writes one bit and moves the head instead of
// shifting every word, and Bit is one masked load. Ring positions past
// the configured length hold stale outcomes that no accessor exposes.
// Snapshot emits the logical shift-register layout, independent of where
// the head happens to be.
type History struct {
	ring   []uint64 // power-of-two word count
	head   uint     // ring position of bit 0 (the newest outcome)
	mask   uint     // ring size in bits - 1
	length uint
}

// NewHistory returns a history register holding length outcome bits.
func NewHistory(length uint) *History {
	if length == 0 {
		panic("bitutil: zero-length history")
	}
	words := uint(1)
	for words*64 < length {
		words <<= 1
	}
	return &History{
		ring:   make([]uint64, words),
		mask:   words*64 - 1,
		length: length,
	}
}

// Len returns the register length in bits.
//
//bpvet:hotpath
func (h *History) Len() uint { return h.length }

// Push shifts in a new outcome as bit 0: the head moves back one ring
// position and the bit there, the oldest in the ring, is overwritten.
//
//bpvet:hotpath
func (h *History) Push(taken bool) {
	var b uint64
	if taken {
		b = 1
	}
	pos := (h.head - 1) & h.mask
	h.head = pos
	w, sh := &h.ring[pos>>6], pos&63
	*w = *w&^(1<<sh) | b<<sh
}

// Bit returns outcome i (0 = most recent). Out-of-range bits read as 0.
//
//bpvet:hotpath
func (h *History) Bit(i uint) uint64 {
	if i >= h.length {
		return 0
	}
	pos := (h.head + i) & h.mask
	return h.ring[pos>>6] >> (pos & 63) & 1
}

// Low returns the least significant n bits (n <= 64) as an integer.
// Bits at or beyond the register length read as 0.
//
//bpvet:hotpath
func (h *History) Low(n uint) uint64 {
	if n > 64 {
		panic("bitutil: History.Low beyond 64 bits")
	}
	return h.word(h.head) & Mask(min(n, h.length))
}

// word returns the 64 ring bits starting at ring position pos, wrapping
// around the end of the ring.
//
//bpvet:hotpath
func (h *History) word(pos uint) uint64 {
	lo, off := (pos&h.mask)>>6, pos&63
	v := h.ring[lo] >> off
	if off != 0 {
		v |= h.ring[(lo+1)&(uint(len(h.ring))-1)] << (64 - off)
	}
	return v
}

// Reset clears the register.
//
//bpvet:hotpath
func (h *History) Reset() {
	for i := range h.ring {
		h.ring[i] = 0
	}
	h.head = 0
}

// Clone returns an independent copy (used to snapshot per-thread state).
func (h *History) Clone() *History {
	c := *h
	c.ring = make([]uint64, len(h.ring))
	copy(c.ring, h.ring)
	return &c
}

// linearWords is the word count of the logical shift-register layout.
func (h *History) linearWords() int { return int((h.length + 63) / 64) }

// Snapshot writes the outcome bits in the shift-register layout — word j
// holds history bits [64j, 64j+64), bits past the length zero — so the
// bytes do not depend on the ring's head position. The length is static
// configuration.
func (h *History) Snapshot(w *snap.Writer) {
	n := h.linearWords()
	w.U32(uint32(n))
	for j := 0; j < n; j++ {
		v := h.word(h.head + uint(j)*64)
		if rest := h.length - uint(j)*64; rest < 64 {
			v &= Mask(rest)
		}
		w.U64(v)
	}
}

// Restore replaces the outcome bits from the shift-register layout. The
// snapshot must have been taken from a register of the same length; bits
// past the length are dropped.
func (h *History) Restore(r *snap.Reader) {
	h.Reset()
	r.U64sInto(h.ring[:h.linearWords()])
	if top := h.length % 64; top != 0 {
		h.ring[h.linearWords()-1] &= Mask(top)
	}
}

// Folded maintains a cyclically-folded image of a long history, the
// standard TAGE trick: an L-bit history is compressed into W bits such
// that pushing one outcome and retiring the outcome that falls off the far
// end costs O(1). See Seznec's TAGE papers.
//
// The fold geometry is precomputed into the two constants the per-push
// step needs — the re-entry bit and the width mask — so an update is a
// shift, two XORs and a compare with no variable shift. A Folded is 32
// bytes (half a cache line), so a predictor's whole fold bank spans a few
// dozen lines.
type Folded struct {
	comp    uint64
	outBit  uint64 // 1 << (origLen % compLen): where the leaving bit re-enters
	mask    uint64 // 1<<compLen - 1
	origLen uint   // L: history length being folded
}

// NewFolded returns a folder compressing origLen history bits to compLen.
func NewFolded(origLen, compLen uint) *Folded {
	if compLen == 0 || compLen > 63 {
		panic("bitutil: folded width out of range")
	}
	return &Folded{
		outBit:  1 << (origLen % compLen),
		mask:    Mask(compLen),
		origLen: origLen,
	}
}

// foldStep advances a folded image c by one push: the entering bit in
// shifts in at the bottom, the leaving bit out (0 or 1) is cancelled at
// its re-entry position outBit, and the bit carried out of the top folds
// back into bit 0. Because c never exceeds mask, the carry is set exactly
// when the shifted image does. The folded image is computed
// unconditionally and picked by that compare, which the compiler lowers
// to a conditional move: a branch would mispredict on half of all pushes,
// and the textbook form (c ^= c >> W; c &= mask) needs a variable shift.
//
//bpvet:hotpath
func foldStep(c, in, out, outBit, mask uint64) uint64 {
	c = (c<<1 | in) ^ (-out & outBit)
	folded := c ^ (mask + 1) ^ 1
	if c > mask {
		c = folded
	}
	return c
}

// Update incorporates a new outcome given the full history register h,
// which must already contain the new outcome at bit 0. The bit leaving the
// window is h.Bit(origLen), i.e. the one just pushed past the end.
//
//bpvet:hotpath
func (f *Folded) Update(h *History) {
	f.UpdateBits(h.Bit(0), h.Bit(f.origLen))
}

// UpdateBits incorporates a push given the entering bit (history bit 0
// after the push) and the bit leaving the fold's window (history bit
// origLen), each 0 or 1. Predictors that maintain several folds over the
// same history length — TAGE keeps three per table — read the two bits
// once and share them across the folds (see FoldLane).
//
//bpvet:hotpath
func (f *Folded) UpdateBits(in, out uint64) {
	f.comp = foldStep(f.comp, in, out, f.outBit, f.mask)
}

// Value returns the folded image.
//
//bpvet:hotpath
func (f *Folded) Value() uint64 { return f.comp }

// Reset clears the folded image (call together with History.Reset).
//
//bpvet:hotpath
func (f *Folded) Reset() { f.comp = 0 }

// Snapshot writes the folded image (the fold geometry is static).
func (f *Folded) Snapshot(w *snap.Writer) { w.U64(f.comp) }

// Restore replaces the folded image, masked to the fold width so corrupt
// input cannot set bits a live fold could never hold.
func (f *Folded) Restore(r *snap.Reader) { f.comp = r.U64() & f.mask }

// FoldLane advances a contiguous lane of folds by one history push, with
// one leaving bit per fold. It is the lane-packed form of calling
// UpdateBits on each fold in turn: TAGE-family predictors keep their folds
// in three parallel lanes (index, tag-0, tag-1) over the same table order,
// gather the leaving bits once per push, and run this loop once per lane.
// The loop body keeps the fold image in a register and touches each Folded
// exactly once, so a whole lane streams through in a few cache lines.
// outs[i] is the bit leaving fold i's window (history bit origLen(i)).
//
//bpvet:hotpath
func FoldLane(fs []Folded, in uint64, outs []uint64) {
	outs = outs[:len(fs)]
	for i := range fs {
		f := &fs[i]
		f.comp = foldStep(f.comp, in, outs[i], f.outBit, f.mask)
	}
}

// Mask returns a value with the low n bits set. n must be <= 64.
//
//bpvet:hotpath
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// Log2 returns floor(log2(n)) for n >= 1.
//
//bpvet:hotpath
func Log2(n uint64) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// IsPow2 reports whether n is a power of two (n >= 1).
//
//bpvet:hotpath
func IsPow2(n uint64) bool { return n != 0 && n&(n-1) == 0 }

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, the standard model for hot/cold branch popularity in the
// synthetic workloads. It precomputes the CDF for O(log n) sampling.
type Zipf struct {
	cdf []float64
}

// NewZipf returns a sampler over n ranks with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("bitutil: Zipf over empty domain")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws a rank using g.
//
//bpvet:hotpath
func (z *Zipf) Sample(g *rng.Xoshiro256) int {
	u := g.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
