package snap

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestWriterLayout pins the little-endian byte layout of every Writer
// method: snapshots stored by one build are restored by another, so the
// encoding is a format, not an implementation detail.
func TestWriterLayout(t *testing.T) {
	cases := []struct {
		name  string
		write func(*Writer)
		want  []byte
	}{
		{"U64", func(w *Writer) { w.U64(0x0102030405060708) }, []byte{8, 7, 6, 5, 4, 3, 2, 1}},
		{"U32", func(w *Writer) { w.U32(0x01020304) }, []byte{4, 3, 2, 1}},
		{"U16", func(w *Writer) { w.U16(0x0102) }, []byte{2, 1}},
		{"U8", func(w *Writer) { w.U8(0xab) }, []byte{0xab}},
		{"Bool", func(w *Writer) { w.Bool(true); w.Bool(false) }, []byte{1, 0}},
		{"I64", func(w *Writer) { w.I64(-2) }, []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{"U64s", func(w *Writer) { w.U64s([]uint64{1, 0x0200}) },
			[]byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0}},
		{"U8s", func(w *Writer) { w.U8s([]uint8{9, 8, 7}) }, []byte{3, 0, 0, 0, 9, 8, 7}},
		{"empty U64s", func(w *Writer) { w.U64s(nil) }, []byte{0, 0, 0, 0}},
	}
	for _, c := range cases {
		var w Writer
		c.write(&w)
		if !bytes.Equal(w.Bytes(), c.want) || w.Len() != len(c.want) {
			t.Errorf("%s wrote % x (len %d), want % x", c.name, w.Bytes(), w.Len(), c.want)
		}
	}
}

// TestRoundTrip reads back every type at its extremes, in one stream.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U64(math.MaxUint64)
	w.U64(0)
	w.U32(math.MaxUint32)
	w.U16(math.MaxUint16)
	w.U8(math.MaxUint8)
	w.Bool(true)
	w.Bool(false)
	w.I64(math.MinInt64)
	w.I64(-1)
	w.U64s([]uint64{3, math.MaxUint64, 0})
	w.U8s([]uint8{0, 255, 17})

	r := NewReader(w.Bytes())
	if r.U64() != math.MaxUint64 || r.U64() != 0 || r.U32() != math.MaxUint32 ||
		r.U16() != math.MaxUint16 || r.U8() != math.MaxUint8 || !r.Bool() || r.Bool() ||
		r.I64() != math.MinInt64 || r.I64() != -1 {
		t.Fatal("scalar round trip mismatch")
	}
	u64s := make([]uint64, 3)
	r.U64sInto(u64s)
	u8s := make([]uint8, 3)
	r.U8sInto(u8s)
	if u64s[0] != 3 || u64s[1] != math.MaxUint64 || u64s[2] != 0 {
		t.Fatalf("U64s round trip = %v", u64s)
	}
	if !bytes.Equal(u8s, []uint8{0, 255, 17}) {
		t.Fatalf("U8s round trip = %v", u8s)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("after a full read: err %v, %d bytes remaining", r.Err(), r.Remaining())
	}
}

// TestBoolAcceptsAnyNonzero: any nonzero byte reads as true.
func TestBoolAcceptsAnyNonzero(t *testing.T) {
	if r := NewReader([]byte{0x80}); !r.Bool() {
		t.Fatal("0x80 read as false")
	}
}

// TestTruncationLatches: a read past the end latches ErrCorrupt, and
// every later read returns zero even where enough bytes remain for it.
func TestTruncationLatches(t *testing.T) {
	var w Writer
	w.U32(0xdeadbeef)
	w.U8(7)
	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0 {
		t.Fatalf("truncated U64 = %#x, want 0", got)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", r.Err())
	}
	if r.U32() != 0 || r.U8() != 0 || r.U16() != 0 || r.Bool() || r.I64() != 0 {
		t.Fatal("a read after the latch returned nonzero")
	}
	dst := []uint64{5}
	r.U64sInto(dst)
	b := []uint8{5}
	r.U8sInto(b)
	if dst[0] != 5 || b[0] != 5 {
		t.Fatal("a slice read after the latch wrote its destination")
	}
	if r.Remaining() != 5 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("latched reader consumed input: %d remaining, err %v", r.Remaining(), r.Err())
	}
}

// TestFailKeepsFirstError: Fail latches a caller-detected error unless
// one is already latched, including ErrCorrupt.
func TestFailKeepsFirstError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Fail("first %d", 1)
	r.Fail("second")
	if r.Err() == nil || r.Err().Error() != "snap: first 1" {
		t.Fatalf("err = %v, want the first Fail", r.Err())
	}
	if r.U8() != 0 {
		t.Fatal("read after Fail returned nonzero")
	}

	r = NewReader(nil)
	r.U8()
	r.Fail("late")
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Fail replaced the latched ErrCorrupt: %v", r.Err())
	}
}

// TestSliceIntoRejectsBadLengths: U64sInto and U8sInto fail when the
// declared length disagrees with dst (a snapshot of another geometry)
// or exceeds the bytes remaining (truncation), and leave dst alone.
func TestSliceIntoRejectsBadLengths(t *testing.T) {
	var w Writer
	w.U64s([]uint64{1, 2})
	w.U8s([]uint8{1, 2})
	mismatch := []struct {
		name string
		read func(*Reader) bool // reads into a wrong-length dst; reports dst untouched
	}{
		{"U64sInto", func(r *Reader) bool { d := []uint64{9, 9, 9}; r.U64sInto(d); return d[0] == 9 }},
		{"U8sInto", func(r *Reader) bool {
			r.U64sInto(make([]uint64, 2))
			d := []uint8{9}
			r.U8sInto(d)
			return d[0] == 9
		}},
	}
	for _, c := range mismatch {
		r := NewReader(w.Bytes())
		if !c.read(r) || r.Err() == nil || errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s with a wrong-length dst: err %v, want a length-mismatch failure", c.name, r.Err())
		}
	}

	// A declared length beyond the remaining bytes is truncation.
	overlong := []struct {
		name string
		enc  []byte
		read func(*Reader) bool
	}{
		{"U64sInto", []byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
			func(r *Reader) bool { d := []uint64{9, 9}; r.U64sInto(d); return d[0] == 9 && d[1] == 9 }},
		{"U8sInto", []byte{3, 0, 0, 0, 1, 2},
			func(r *Reader) bool { d := []uint8{9, 9, 9}; r.U8sInto(d); return d[0] == 9 }},
	}
	for _, c := range overlong {
		r := NewReader(c.enc)
		if !c.read(r) || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s past the end: err %v, want ErrCorrupt with dst untouched", c.name, r.Err())
		}
	}
}
