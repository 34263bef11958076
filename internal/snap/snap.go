// Package snap is the deterministic binary codec behind the simulator's
// Snapshot/Restore seam. A snapshot captures exactly the *mutable* state
// of a running simulation — table words, history registers, RNG streams,
// key files, ring buffers, cycle counters — and never static configuration,
// which is rebuilt from the run spec on restore. That split keeps the
// encoding small and makes a snapshot meaningless outside the spec that
// produced it, which is why a snapshot only ever passes between members
// of one fork chain, whose specs share everything but the re-key period
// (see internal/experiment).
//
// The format is a flat little-endian byte stream with no self-description:
// writer and reader must agree on the field sequence, which they do by
// construction — every component's Snapshot and Restore methods are
// adjacent in its own package and visit fields in the same order.
// Snapshots are never stored: they live in memory in the process that
// took them, so they cannot drift across builds.
//
// Readers are hardened against arbitrary input: every read is bounds
// checked, declared lengths are validated against the bytes actually
// remaining, and the first failure latches a sticky error that makes all
// subsequent reads return zero values. Restore implementations therefore
// never panic on truncated or corrupt input — they observe r.Err() after
// decoding and discard the partially written state.
package snap

import (
	"errors"
	"fmt"
)

// ErrCorrupt is the sticky error latched by a Reader when the input is
// truncated or a declared length exceeds the remaining bytes.
var ErrCorrupt = errors.New("snap: corrupt or truncated snapshot")

// Writer serializes a snapshot. The zero value is ready to use. Writers
// never fail: all sizing errors are caller bugs surfaced by the paired
// Reader during tests.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer that encodes into buf's storage from its
// start, so a caller done with an earlier snapshot can recycle it.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// Bytes returns the encoded snapshot.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U64 appends a 64-bit value little-endian.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U32 appends a 32-bit value little-endian.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U16 appends a 16-bit value little-endian.
func (w *Writer) U16(v uint16) {
	w.buf = append(w.buf, byte(v), byte(v>>8))
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// I64 appends a signed 64-bit value (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// U64s appends a length-prefixed slice of 64-bit values.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// U8s appends a length-prefixed byte slice.
func (w *Writer) U8s(vs []uint8) {
	w.U32(uint32(len(vs)))
	w.buf = append(w.buf, vs...)
}

// Reader decodes a snapshot produced by Writer. The first out-of-bounds
// read latches ErrCorrupt; every later read returns the zero value.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader over an encoded snapshot.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky decode error, or nil if every read so far was in
// bounds. Callers must check Err after decoding and before trusting the
// restored state.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Fail latches a caller-detected inconsistency (for example a slice length
// that does not match the restoring structure) as the reader's sticky
// error.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.pos < n {
		r.err = ErrCorrupt
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U64 reads a 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// U32 reads a 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U16 reads a 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean. Any nonzero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// U64sInto reads a length-prefixed slice of 64-bit values into dst. The
// declared length must equal len(dst): snapshots restore into structures
// whose geometry is rebuilt from the spec, so a mismatch means the
// snapshot belongs to a different configuration and the reader fails.
func (r *Reader) U64sInto(dst []uint64) {
	n := int(r.U32())
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Fail("u64 slice length %d, restoring structure wants %d", n, len(dst))
		return
	}
	if r.Remaining() < 8*n {
		r.err = ErrCorrupt
		return
	}
	for i := range dst {
		dst[i] = r.U64()
	}
}

// U8sInto reads a length-prefixed byte slice into dst, with the same
// exact-length contract as U64sInto.
func (r *Reader) U8sInto(dst []uint8) {
	n := int(r.U32())
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Fail("u8 slice length %d, restoring structure wants %d", n, len(dst))
		return
	}
	b := r.take(n)
	if b == nil {
		return
	}
	copy(dst, b)
}

// Snapshotter is implemented by every component whose mutable state can be
// captured and restored. Restore must be called on a component built from
// the same static configuration (spec, seed, geometry) as the one that
// produced the snapshot; implementations validate what they can through
// the reader's length checks and report the rest via r.Err().
type Snapshotter interface {
	Snapshot(w *Writer)
	Restore(r *Reader)
}
