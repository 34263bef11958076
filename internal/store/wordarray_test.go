package store

import (
	"bytes"
	"testing"
	"testing/quick"

	"xorbp/internal/core"
	"xorbp/internal/snap"
)

func guardFor(m core.Mechanism, enhanced bool) *core.Guard {
	o := core.OptionsFor(m)
	o.EnhancedPHT = enhanced
	return core.NewController(o, 1).Guard(42, core.StructAll)
}

func TestWordArrayRoundTripSameDomain(t *testing.T) {
	for _, m := range []core.Mechanism{core.Baseline, core.XOR, core.NoisyXOR} {
		for _, entryBits := range []uint{1, 2, 4, 8, 11, 16, 32, 64} {
			a := NewWordArray(guardFor(m, true), 6, entryBits, 0)
			d := core.Domain{Thread: 0, Priv: core.User}
			for i := uint64(0); i < a.Len(); i++ {
				v := (i * 0x9e37) & ((1 << entryBits) - 1)
				a.Set(d, i, v)
			}
			for i := uint64(0); i < a.Len(); i++ {
				want := (i * 0x9e37) & ((1 << entryBits) - 1)
				if got := a.Get(d, i); got != want {
					t.Fatalf("%v w=%d: entry %d = %d, want %d", m, entryBits, i, got, want)
				}
			}
		}
	}
}

func TestWordArrayNeighboursUnaffected(t *testing.T) {
	// Writing one 2-bit entry must not disturb its word neighbours as seen
	// by the same domain.
	a := NewWordArray(guardFor(core.NoisyXOR, true), 8, 2, 1)
	d := core.Domain{Thread: 0, Priv: core.User}
	for i := uint64(0); i < 64; i++ {
		a.Set(d, i, 1)
	}
	a.Set(d, 10, 3)
	for i := uint64(0); i < 64; i++ {
		want := uint64(1)
		if i == 10 {
			want = 3
		}
		if got := a.Get(d, i); got != want {
			t.Fatalf("entry %d = %d, want %d", i, got, want)
		}
	}
}

func TestWordArrayCrossDomainNoise(t *testing.T) {
	// A value written by thread 0 must not be readable by thread 1 under
	// an encoding mechanism (with overwhelming probability for 32-bit
	// entries).
	a := NewWordArray(guardFor(core.XOR, true), 4, 32, 0)
	d0 := core.Domain{Thread: 0, Priv: core.User}
	d1 := core.Domain{Thread: 1, Priv: core.User}
	a.Set(d0, 3, 0xdeadbeef)
	if a.Get(d1, 3) == 0xdeadbeef {
		t.Fatal("cross-thread read decoded successfully")
	}
	if a.Get(d0, 3) != 0xdeadbeef {
		t.Fatal("same-thread read failed")
	}
}

func TestWordArrayKeyRotationInvalidates(t *testing.T) {
	o := core.OptionsFor(core.NoisyXOR)
	ctrl := core.NewController(o, 7)
	a := NewWordArray(ctrl.Guard(0, core.StructAll), 4, 32, 0)
	d := core.Domain{Thread: 0, Priv: core.User}
	a.Set(d, 5, 0xcafe1234)
	ctrl.ContextSwitch(0)
	if a.Get(d, 5) == 0xcafe1234 {
		t.Fatal("residual state readable after key rotation")
	}
}

func TestWordArrayBaselineSharedState(t *testing.T) {
	// The vulnerable baseline: thread 1 reads thread 0's value directly.
	a := NewWordArray(guardFor(core.Baseline, false), 4, 32, 0)
	d0 := core.Domain{Thread: 0, Priv: core.User}
	d1 := core.Domain{Thread: 1, Priv: core.User}
	a.Set(d0, 3, 0xdeadbeef)
	if a.Get(d1, 3) != 0xdeadbeef {
		t.Fatal("baseline should share contents across threads")
	}
}

func TestWordArrayFlushAll(t *testing.T) {
	a := NewWordArray(guardFor(core.CompleteFlush, false), 5, 2, 1)
	d := core.Domain{Thread: 0, Priv: core.User}
	a.Set(d, 0, 3)
	a.FlushAll()
	if a.Get(d, 0) != 1 {
		t.Fatalf("flush did not restore init value: %d", a.Get(d, 0))
	}
}

func TestWordArrayPreciseFlush(t *testing.T) {
	// Owner tracking: flushing thread 0 must clear its words but keep
	// thread 1's (different words).
	a := NewWordArray(guardFor(core.PreciseFlush, false), 4, 64, 0)
	d0 := core.Domain{Thread: 0, Priv: core.User}
	d1 := core.Domain{Thread: 1, Priv: core.User}
	a.Set(d0, 1, 111)
	a.Set(d1, 2, 222)
	a.FlushThread(0)
	if a.Get(d0, 1) != 0 {
		t.Fatal("thread 0's entry survived its flush")
	}
	if a.Get(d1, 2) != 222 {
		t.Fatal("thread 1's entry was flushed with thread 0")
	}
}

func TestWordArrayPreciseFlushWithoutOwnersDegrades(t *testing.T) {
	// Without owner metadata (non-PreciseFlush guard), FlushThread must
	// conservatively clear everything.
	a := NewWordArray(guardFor(core.CompleteFlush, false), 4, 8, 0)
	d := core.Domain{Thread: 1, Priv: core.User}
	a.Set(d, 1, 9)
	a.FlushThread(0)
	if a.Get(d, 1) != 0 {
		t.Fatal("owner-less FlushThread did not degrade to FlushAll")
	}
}

func TestWordArrayUpdate(t *testing.T) {
	a := NewWordArray(guardFor(core.NoisyXOR, true), 6, 2, 1)
	d := core.Domain{Thread: 0, Priv: core.User}
	// Note: before the first write by this domain, the entry decodes as
	// noise (the init pattern is not valid data for any key) — exactly the
	// paper's post-rotation behaviour. Write first, then update.
	a.Set(d, 7, 1)
	a.Update(d, 7, func(v uint64) uint64 { return v + 1 })
	if a.Get(d, 7) != 2 {
		t.Fatalf("update result %d, want 2", a.Get(d, 7))
	}
	// Updates mask to the entry width.
	a.Update(d, 7, func(v uint64) uint64 { return 0xff })
	if a.Get(d, 7) != 3 {
		t.Fatalf("update did not mask: %d", a.Get(d, 7))
	}
}

func TestWordArrayProperties(t *testing.T) {
	// Property: for any sequence of writes in one domain, the last write
	// per index wins.
	a := NewWordArray(guardFor(core.NoisyXOR, true), 6, 4, 0)
	d := core.Domain{Thread: 2, Priv: core.Kernel}
	last := map[uint64]uint64{}
	f := func(idx8 uint8, v8 uint8) bool {
		idx := uint64(idx8) % a.Len()
		v := uint64(v8) & 0xf
		a.Set(d, idx, v)
		last[idx] = v
		return a.Get(d, idx) == last[idx]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestWordArrayStorageBits(t *testing.T) {
	a := NewWordArray(guardFor(core.Baseline, false), 12, 2, 0)
	if a.StorageBits() != 4096*2 {
		t.Fatalf("StorageBits = %d, want 8192", a.StorageBits())
	}
}

func TestWordArrayInitValue(t *testing.T) {
	a := NewWordArray(guardFor(core.Baseline, false), 3, 2, 2)
	d := core.Domain{Thread: 0, Priv: core.User}
	for i := uint64(0); i < a.Len(); i++ {
		if a.Get(d, i) != 2 {
			t.Fatalf("entry %d init = %d, want 2", i, a.Get(d, i))
		}
	}
}

func TestWordArrayPanicsOnBadWidth(t *testing.T) {
	for _, w := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d did not panic", w)
				}
			}()
			NewWordArray(guardFor(core.Baseline, false), 3, w, 0)
		}()
	}
}

// TestKeyedAccessMatchesDomainAccess pins the keyed row access to the
// per-entry one for every entry width, under the XOR and rotate-XOR
// codecs with and without the Enhanced word schedule: a key from Key
// reads through GetWith exactly what Get reads, on the array that
// derived it and on a twin sharing its guard and geometry, and
// UpdateWith leaves the physical words exactly as Update does.
func TestKeyedAccessMatchesDomainAccess(t *testing.T) {
	for _, codec := range []core.Codec{core.XORCodec{}, core.RotXORCodec{}} {
		for _, enhanced := range []bool{false, true} {
			o := core.OptionsFor(core.NoisyXOR)
			o.Codec, o.EnhancedPHT = codec, enhanced
			g := core.NewController(o, 3).Guard(7, core.StructAll)
			d := core.Domain{Thread: 1, Priv: core.Kernel}
			for entryBits := uint(1); entryBits <= 64; entryBits++ {
				mask := uint64(1)<<entryBits - 1
				if entryBits == 64 {
					mask = ^uint64(0)
				}
				a := NewWordArray(g, 7, entryBits, 0)
				twin := NewWordArray(g, 7, entryBits, 0)
				viaUpdate := NewWordArray(g, 7, entryBits, 0)
				viaKeyed := NewWordArray(g, 7, entryBits, 0)
				for i := uint64(0); i < a.Len(); i++ {
					a.Set(d, i, i*0x9e3779b97f4a7c15)
					twin.Set(d, i, ^i*0x9e37)
				}
				for i := uint64(0); i < a.Len(); i++ {
					k := a.Key(d, i)
					if got, want := a.GetWith(k, i), a.Get(d, i); got != want || want != i*0x9e3779b97f4a7c15&mask {
						t.Fatalf("%s enhanced=%v w=%d: GetWith(%d) = %#x, Get = %#x", codec.Name(), enhanced, entryBits, i, got, want)
					}
					if got, want := twin.GetWith(k, i), twin.Get(d, i); got != want {
						t.Fatalf("%s enhanced=%v w=%d: twin GetWith(%d) = %#x, Get = %#x", codec.Name(), enhanced, entryBits, i, got, want)
					}
					bump := func(v uint64) uint64 { return v*5 + i }
					viaUpdate.Update(d, i, bump)
					viaKeyed.UpdateWith(d, viaKeyed.Key(d, i), i, bump)
				}
				if !bytes.Equal(snapshotBytes(viaUpdate), snapshotBytes(viaKeyed)) {
					t.Fatalf("%s enhanced=%v w=%d: UpdateWith left different words than Update", codec.Name(), enhanced, entryBits)
				}
			}
		}
	}
}

func snapshotBytes(a *WordArray) []byte {
	var w snap.Writer
	a.Snapshot(&w)
	return w.Bytes()
}
