package core

import (
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	codecs := []Codec{XORCodec{}, RotXORCodec{}, IdentityCodec{}}
	for _, c := range codecs {
		c := c
		f := func(v uint64, k uint64) bool {
			return c.Decode(c.Encode(v, Key(k)), Key(k)) == v
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestCodecWrongKeyGarbles(t *testing.T) {
	// Decoding with a different key must not return the original value
	// (except with negligible probability; test fixed vectors).
	for _, c := range []Codec{XORCodec{}, RotXORCodec{}} {
		enc := c.Encode(0xdeadbeef, Key(0x1234567890abcdef))
		dec := c.Decode(enc, Key(0xfedcba0987654321))
		if dec == 0xdeadbeef {
			t.Errorf("%s: wrong key still decodes", c.Name())
		}
	}
}

func TestXORCodecIsInvolution(t *testing.T) {
	f := func(v, k uint64) bool {
		c := XORCodec{}
		return c.Encode(v, Key(k)) == c.Decode(v, Key(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScramblerBijective(t *testing.T) {
	// Every scrambler must be a bijection over the index space for any key.
	scramblers := []Scrambler{XORScrambler{}, FeistelScrambler{}, IdentityScrambler{}}
	for _, s := range scramblers {
		for _, nbits := range []uint{1, 2, 7, 8, 10} {
			for _, k := range []Key{0, 1, 0xdeadbeefcafebabe, ^Key(0)} {
				seen := make([]bool, 1<<nbits)
				for i := uint64(0); i < 1<<nbits; i++ {
					out := s.Scramble(i, k, nbits)
					if out >= 1<<nbits {
						t.Fatalf("%s nbits=%d: output %d out of range", s.Name(), nbits, out)
					}
					if seen[out] {
						t.Fatalf("%s nbits=%d key=%x: collision at %d", s.Name(), nbits, k, out)
					}
					seen[out] = true
				}
			}
		}
	}
}

func TestXORScramblerKeyDependence(t *testing.T) {
	s := XORScrambler{}
	if s.Scramble(5, 1, 10) == s.Scramble(5, 2, 10) {
		t.Fatal("different keys map index identically")
	}
}

func TestKeyFileRotatesOnContextSwitch(t *testing.T) {
	c := NewController(OptionsFor(NoisyXOR), 1)
	d := Domain{Thread: 0, Priv: User}
	g := c.Guard(0, StructAll)
	before := g.ContentKey(d)
	c.ContextSwitch(0)
	if g.ContentKey(d) == before {
		t.Fatal("content key unchanged after context switch")
	}
}

func TestKeyFilePerThreadIsolation(t *testing.T) {
	c := NewController(OptionsFor(NoisyXOR), 1)
	g := c.Guard(0, StructAll)
	d0 := Domain{Thread: 0, Priv: User}
	d1 := Domain{Thread: 1, Priv: User}
	if g.ContentKey(d0) == g.ContentKey(d1) {
		t.Fatal("threads share a content key")
	}
	before := g.ContentKey(d1)
	c.ContextSwitch(0)
	if g.ContentKey(d1) != before {
		t.Fatal("thread 0's switch rotated thread 1's key")
	}
}

func TestKeyFilePerPrivilegeKeys(t *testing.T) {
	c := NewController(OptionsFor(NoisyXOR), 1)
	g := c.Guard(0, StructAll)
	du := Domain{Thread: 0, Priv: User}
	dk := Domain{Thread: 0, Priv: Kernel}
	if g.ContentKey(du) == g.ContentKey(dk) {
		t.Fatal("user and kernel share a content key")
	}
}

func TestPrivilegeRotationPolicy(t *testing.T) {
	on := OptionsFor(NoisyXOR)
	off := OptionsFor(NoisyXOR)
	off.RotateOnPrivilege = false

	cOn := NewController(on, 1)
	gOn := cOn.Guard(0, StructAll)
	dk := Domain{Thread: 0, Priv: Kernel}
	before := gOn.ContentKey(dk)
	cOn.PrivilegeChange(0, Kernel)
	if gOn.ContentKey(dk) == before {
		t.Fatal("RotateOnPrivilege=true did not rotate")
	}

	cOff := NewController(off, 1)
	gOff := cOff.Guard(0, StructAll)
	before = gOff.ContentKey(dk)
	cOff.PrivilegeChange(0, Kernel)
	if gOff.ContentKey(dk) != before {
		t.Fatal("RotateOnPrivilege=false rotated anyway")
	}
}

func TestBaselineHasNoKeys(t *testing.T) {
	c := NewController(OptionsFor(Baseline), 1)
	g := c.Guard(99, StructAll)
	d := Domain{Thread: 0, Priv: User}
	if g.ContentKey(d) != 0 || g.IndexKey(d) != 0 {
		t.Fatal("baseline exposes nonzero keys")
	}
	if g.Encode(42, d) != 42 || g.ScrambleIndex(7, d, 8) != 7 {
		t.Fatal("baseline transforms data")
	}
}

func TestXORMechanismDoesNotScramble(t *testing.T) {
	c := NewController(OptionsFor(XOR), 1)
	g := c.Guard(0, StructAll)
	d := Domain{Thread: 0, Priv: User}
	if g.ScrambleIndex(7, d, 8) != 7 {
		t.Fatal("XOR-BP must not scramble the index")
	}
	if g.Encode(42, d) == 42 {
		t.Fatal("XOR-BP must encode contents")
	}
}

type fakeTable struct {
	all     int
	threads []HWThread
}

func (f *fakeTable) FlushAll()              { f.all++ }
func (f *fakeTable) FlushThread(t HWThread) { f.threads = append(f.threads, t) }

func TestCompleteFlushBroadcast(t *testing.T) {
	c := NewController(OptionsFor(CompleteFlush), 1)
	ft := &fakeTable{}
	c.Register(ft, StructAll)
	c.ContextSwitch(0)
	if ft.all != 1 {
		t.Fatalf("FlushAll called %d times, want 1", ft.all)
	}
	c.PrivilegeChange(0, Kernel)
	if ft.all != 2 {
		t.Fatalf("privilege change: FlushAll called %d times, want 2", ft.all)
	}
}

func TestCompleteFlushPrivilegePolicy(t *testing.T) {
	o := OptionsFor(CompleteFlush)
	o.FlushOnPrivilege = false
	c := NewController(o, 1)
	ft := &fakeTable{}
	c.Register(ft, StructAll)
	c.PrivilegeChange(0, Kernel)
	if ft.all != 0 {
		t.Fatal("FlushOnPrivilege=false still flushed")
	}
}

func TestPreciseFlushTargetsThread(t *testing.T) {
	c := NewController(OptionsFor(PreciseFlush), 1)
	ft := &fakeTable{}
	c.Register(ft, StructAll)
	c.ContextSwitch(2)
	if ft.all != 0 || len(ft.threads) != 1 || ft.threads[0] != 2 {
		t.Fatalf("precise flush wrong: all=%d threads=%v", ft.all, ft.threads)
	}
}

func TestEncodingMechanismsDoNotFlush(t *testing.T) {
	for _, m := range []Mechanism{XOR, NoisyXOR} {
		c := NewController(OptionsFor(m), 1)
		ft := &fakeTable{}
		c.Register(ft, StructAll)
		c.ContextSwitch(0)
		c.PrivilegeChange(0, Kernel)
		if ft.all != 0 || len(ft.threads) != 0 {
			t.Errorf("%s flushed tables", m)
		}
	}
}

func TestPeriodicFlush(t *testing.T) {
	c := NewController(OptionsFor(CompleteFlush), 1)
	ft := &fakeTable{}
	c.Register(ft, StructAll)
	c.PeriodicFlush()
	if ft.all != 1 {
		t.Fatal("PeriodicFlush did not flush")
	}
	cb := NewController(OptionsFor(NoisyXOR), 1)
	cb.Register(ft, StructAll)
	cb.PeriodicFlush()
	if ft.all != 1 {
		t.Fatal("PeriodicFlush flushed under an encoding mechanism")
	}
}

func TestGuardSaltDiversifiesTables(t *testing.T) {
	c := NewController(OptionsFor(NoisyXOR), 1)
	g1 := c.Guard(1, StructAll)
	g2 := c.Guard(2, StructAll)
	d := Domain{Thread: 0, Priv: User}
	if g1.ContentKey(d) == g2.ContentKey(d) {
		t.Fatal("different tables share effective content keys")
	}
	if g1.IndexKey(d) == g2.IndexKey(d) {
		t.Fatal("different tables share effective index keys")
	}
}

func TestGuardWordRoundTrip(t *testing.T) {
	for _, enhanced := range []bool{false, true} {
		o := OptionsFor(NoisyXOR)
		o.EnhancedPHT = enhanced
		c := NewController(o, 1)
		g := c.Guard(0, StructAll)
		d := Domain{Thread: 0, Priv: User}
		f := func(v uint64, w uint16) bool {
			k := g.WordKey(d, uint64(w))
			return g.DecodeWith(g.EncodeWith(v, k), k) == v
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("enhanced=%v: %v", enhanced, err)
		}
	}
}

func TestEnhancedWordKeysDiffer(t *testing.T) {
	o := OptionsFor(NoisyXOR)
	o.EnhancedPHT = true
	c := NewController(o, 1)
	g := c.Guard(0, StructAll)
	d := Domain{Thread: 0, Priv: User}
	if g.WordKey(d, 0) == g.WordKey(d, 1) {
		t.Fatal("enhanced schedule reuses the key across words")
	}
	// Plain (non-enhanced) XOR-PHT uses one key for all words.
	o.EnhancedPHT = false
	c2 := NewController(o, 1)
	g2 := c2.Guard(0, StructAll)
	if g2.WordKey(d, 0) != g2.WordKey(d, 1) || g2.WordKey(d, 0) != g2.ContentKey(d) {
		t.Fatal("plain schedule should reuse the content key across words")
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewController(OptionsFor(NoisyXOR), 1)
	c.ContextSwitch(0)
	c.ContextSwitch(1)
	c.PrivilegeChange(0, Kernel)
	ctx, priv, flushes, rot := c.Stats()
	if ctx != 2 || priv != 1 || flushes != 0 {
		t.Fatalf("stats ctx=%d priv=%d flushes=%d", ctx, priv, flushes)
	}
	// Two context switches rotate all privilege levels (3 each); one
	// privilege change rotates one domain.
	if rot != 2*3+1 {
		t.Fatalf("rotations = %d, want 7", rot)
	}
}

func TestMechanismPredicates(t *testing.T) {
	if !XOR.Encodes() || !NoisyXOR.Encodes() || Baseline.Encodes() {
		t.Fatal("Encodes predicate wrong")
	}
	if XOR.ScramblesIndex() || !NoisyXOR.ScramblesIndex() {
		t.Fatal("ScramblesIndex predicate wrong")
	}
	if !CompleteFlush.Flushes() || !PreciseFlush.Flushes() || NoisyXOR.Flushes() {
		t.Fatal("Flushes predicate wrong")
	}
}

func TestMechanismAndPrivilegeStrings(t *testing.T) {
	if NoisyXOR.String() != "Noisy-XOR-BP" || CompleteFlush.String() != "CompleteFlush" {
		t.Fatal("mechanism names wrong")
	}
	if User.String() != "user" || Kernel.String() != "kernel" || Hypervisor.String() != "hypervisor" {
		t.Fatal("privilege names wrong")
	}
	d := Domain{Thread: 3, Priv: Kernel}
	if d.String() != "hw3/kernel" {
		t.Fatalf("domain string = %q", d.String())
	}
}

func TestControllerDeterminism(t *testing.T) {
	mk := func() Key {
		c := NewController(OptionsFor(NoisyXOR), 42)
		c.ContextSwitch(0)
		c.PrivilegeChange(0, Kernel)
		return c.Guard(7, StructAll).ContentKey(Domain{Thread: 0, Priv: Kernel})
	}
	if mk() != mk() {
		t.Fatal("controller key evolution is not deterministic")
	}
}

func TestSingleStepDetector(t *testing.T) {
	d := NewSingleStepDetector()
	// Normal syscall cadence never trips it.
	for i := 0; i < 100; i++ {
		if d.KernelEntry(50000) {
			t.Fatal("detector tripped on normal progress")
		}
	}
	// Single-step cadence trips after Window starved intervals.
	for i := 0; i < d.Window-1; i++ {
		if d.KernelEntry(1) {
			t.Fatalf("tripped too early at interval %d", i)
		}
	}
	if !d.KernelEntry(1) {
		t.Fatal("detector did not trip after Window starved intervals")
	}
	if !d.Bypass() {
		t.Fatal("Bypass should report active")
	}
	// One healthy interval re-arms updates.
	d.KernelEntry(50000)
	if d.Bypass() {
		t.Fatal("Bypass should clear after normal progress")
	}
	d.Reset()
	if d.Bypass() {
		t.Fatal("Reset should clear the detector")
	}
}
