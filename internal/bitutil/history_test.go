package bitutil

import (
	"bytes"
	"fmt"
	"testing"

	"xorbp/internal/rng"
	"xorbp/internal/snap"
)

// shiftRegister is the reference model the ring History must match: the
// textbook shift register, every word shifted on every push, with bit i
// of the history at bit i%64 of word i/64 and bits past the length zero.
// Its word slice is also the snapshot layout.
type shiftRegister struct {
	bits   []uint64
	length uint
}

func newShiftRegister(length uint) *shiftRegister {
	return &shiftRegister{bits: make([]uint64, (length+63)/64), length: length}
}

func (r *shiftRegister) push(taken bool) {
	carry := uint64(0)
	if taken {
		carry = 1
	}
	for i := range r.bits {
		next := r.bits[i] >> 63
		r.bits[i] = r.bits[i]<<1 | carry
		carry = next
	}
	if top := r.length % 64; top != 0 {
		r.bits[len(r.bits)-1] &= 1<<top - 1
	}
}

func (r *shiftRegister) bit(i uint) uint64 {
	if i >= r.length {
		return 0
	}
	return r.bits[i/64] >> (i % 64) & 1
}

func (r *shiftRegister) snapshot() []byte {
	var w snap.Writer
	w.U64s(r.bits)
	return w.Bytes()
}

func snapshotOf(h *History) []byte {
	var w snap.Writer
	h.Snapshot(&w)
	return w.Bytes()
}

// checkAgainst compares every observable of h with the reference.
func checkAgainst(t *testing.T, h *History, ref *shiftRegister, where string) {
	t.Helper()
	for i := uint(0); i < ref.length+3; i++ {
		if got, want := h.Bit(i), ref.bit(i); got != want {
			t.Fatalf("%s: Bit(%d) = %d, want %d", where, i, got, want)
		}
	}
	for n := uint(0); n <= 64; n++ {
		want := ref.bits[0] & Mask(n)
		if got := h.Low(n); got != want {
			t.Fatalf("%s: Low(%d) = %#x, want %#x", where, n, got, want)
		}
	}
	if got, want := snapshotOf(h), ref.snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("%s: snapshot bytes differ from the shift-register layout", where)
	}
}

// TestHistoryRingMatchesShiftRegister drives the ring and the reference
// through the same random outcomes, past several wraps of the ring, at
// lengths on both sides of word and ring-size boundaries and at the
// predictors' own history lengths.
func TestHistoryRingMatchesShiftRegister(t *testing.T) {
	for _, length := range []uint{1, 63, 64, 65, 131, 641, 1801} {
		t.Run(fmt.Sprint(length), func(t *testing.T) {
			g := rng.NewXoshiro256(uint64(length))
			h, ref := NewHistory(length), newShiftRegister(length)
			steps := 3*len(h.ring)*64 + 17
			for step := 0; step < steps; step++ {
				taken := g.Bool(0.5)
				h.Push(taken)
				ref.push(taken)
				if step%61 == 0 || step == steps-1 {
					checkAgainst(t, h, ref, fmt.Sprintf("step %d", step))
				}
			}

			// Clone is independent of the original and equal to it.
			c := h.Clone()
			checkAgainst(t, c, ref, "clone")
			h.Push(true)
			checkAgainst(t, c, ref, "clone after original pushed")
			ref.push(true)
			checkAgainst(t, h, ref, "original after clone")

			// Restore from the reference layout into a register whose
			// ring head sits elsewhere, then keep both running.
			r := NewHistory(length)
			for i := 0; i < 5; i++ {
				r.Push(i%2 == 0)
			}
			rd := snap.NewReader(ref.snapshot())
			r.Restore(rd)
			if rd.Err() != nil || rd.Remaining() != 0 {
				t.Fatalf("restore: err %v, %d bytes left", rd.Err(), rd.Remaining())
			}
			checkAgainst(t, r, ref, "restored")
			for step := 0; step < 200; step++ {
				taken := g.Bool(0.3)
				r.Push(taken)
				ref.push(taken)
			}
			checkAgainst(t, r, ref, "restored then pushed")
		})
	}
}

// TestHistoryRestoreRejectsOtherLength keeps the snapshot geometry check:
// a register of another word count fails the reader instead of
// misdecoding.
func TestHistoryRestoreRejectsOtherLength(t *testing.T) {
	src := NewHistory(130)
	dst := NewHistory(200)
	r := snap.NewReader(snapshotOf(src))
	dst.Restore(r)
	if r.Err() == nil {
		t.Fatal("restoring a 3-word snapshot into a 4-word register succeeded")
	}
}
