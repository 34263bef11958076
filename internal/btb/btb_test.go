package btb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/rng"
	"xorbp/internal/snap"
)

func ctrl(m core.Mechanism) *core.Controller {
	return core.NewController(core.OptionsFor(m), 1)
}

func d(t core.HWThread) core.Domain { return core.Domain{Thread: t, Priv: core.User} }

func TestBTBHitAfterUpdate(t *testing.T) {
	for _, m := range []core.Mechanism{core.Baseline, core.XOR, core.NoisyXOR, core.PreciseFlush} {
		b := New(FPGAConfig(), ctrl(m))
		b.Update(d(0), 0x400100, 0x400800, predictor.UncondDirect)
		tgt, hit := b.Lookup(d(0), 0x400100)
		if !hit || tgt != 0x400800 {
			t.Errorf("%v: hit=%v target=%#x, want hit 0x400800", m, hit, tgt)
		}
	}
}

func TestBTBMissOnUnknownPC(t *testing.T) {
	b := New(FPGAConfig(), ctrl(core.Baseline))
	if _, hit := b.Lookup(d(0), 0x400100); hit {
		t.Fatal("empty BTB reported a hit")
	}
}

func TestBTBCrossThreadIsolationUnderXOR(t *testing.T) {
	// Under XOR-BTB a different hardware thread must not decode the
	// stored tag/target (Listing 1 defense).
	b := New(FPGAConfig(), ctrl(core.XOR))
	b.Update(d(0), 0x400100, 0x400800, predictor.Indirect)
	if tgt, hit := b.Lookup(d(1), 0x400100); hit && tgt == 0x400800 {
		t.Fatal("victim thread decoded attacker's BTB entry under XOR-BTB")
	}
	// Baseline: the attack works.
	bb := New(FPGAConfig(), ctrl(core.Baseline))
	bb.Update(d(0), 0x400100, 0x400800, predictor.Indirect)
	if tgt, hit := bb.Lookup(d(1), 0x400100); !hit || tgt != 0x400800 {
		t.Fatal("baseline should share entries across threads")
	}
}

func TestBTBKeyRotationInvalidatesResidue(t *testing.T) {
	c := ctrl(core.NoisyXOR)
	b := New(FPGAConfig(), c)
	b.Update(d(0), 0x400100, 0x400800, predictor.UncondDirect)
	c.ContextSwitch(0)
	if tgt, hit := b.Lookup(d(0), 0x400100); hit && tgt == 0x400800 {
		t.Fatal("residual entry decoded after key rotation")
	}
}

func TestBTBIndexScramblingMovesEntries(t *testing.T) {
	// With Noisy-XOR, two threads writing the same PC land in different
	// sets (with probability 1 - 1/sets for random index keys).
	c := ctrl(core.NoisyXOR)
	b := New(FPGAConfig(), c)
	if b.index(d(0), 0x400100) == b.index(d(1), 0x400100) {
		// One collision is possible but suspicious; try another PC to
		// rule out systematic failure.
		if b.index(d(0), 0x400200) == b.index(d(1), 0x400200) {
			t.Fatal("index scrambling appears inactive across threads")
		}
	}
	// Without NoisyXOR the index is the plain PC slice.
	bb := New(FPGAConfig(), ctrl(core.XOR))
	if bb.index(d(0), 0x400100) != bb.index(d(1), 0x400100) {
		t.Fatal("XOR-BP must not scramble the index")
	}
}

func TestBTBEviction(t *testing.T) {
	// Filling one set beyond its ways evicts the LRU entry.
	cfg := Config{Sets: 4, Ways: 2, TagBits: 16, TargetBits: 32}
	b := New(cfg, ctrl(core.Baseline))
	// Same set: PCs differing only above index+shift bits.
	base := uint64(0x1000)
	stride := uint64(4 * 4) // sets * pcShift granularity
	b.Update(d(0), base, 0xa0, predictor.UncondDirect)
	b.Update(d(0), base+stride, 0xa1, predictor.UncondDirect)
	// Touch the first so the second becomes LRU.
	b.Lookup(d(0), base)
	b.Update(d(0), base+2*stride, 0xa2, predictor.UncondDirect)
	if _, hit := b.Lookup(d(0), base+stride); hit {
		t.Fatal("LRU entry was not evicted")
	}
	if _, hit := b.Lookup(d(0), base); !hit {
		t.Fatal("MRU entry was evicted")
	}
}

func TestBTBUpdateRefreshesExisting(t *testing.T) {
	b := New(FPGAConfig(), ctrl(core.NoisyXOR))
	b.Update(d(0), 0x400100, 0xaaa0, predictor.Indirect)
	b.Update(d(0), 0x400100, 0xbbb0, predictor.Indirect)
	tgt, hit := b.Lookup(d(0), 0x400100)
	if !hit || tgt != 0xbbb0 {
		t.Fatalf("refresh failed: hit=%v tgt=%#x", hit, tgt)
	}
	if got := b.OccupancyOf(0); got != 1 {
		t.Fatalf("occupancy %d, want 1 (no duplicate allocation)", got)
	}
}

func TestBTBFlushAll(t *testing.T) {
	b := New(FPGAConfig(), ctrl(core.CompleteFlush))
	b.Update(d(0), 0x400100, 0x400800, predictor.UncondDirect)
	b.FlushAll()
	if _, hit := b.Lookup(d(0), 0x400100); hit {
		t.Fatal("entry survived FlushAll")
	}
}

func TestBTBFlushThread(t *testing.T) {
	b := New(FPGAConfig(), ctrl(core.PreciseFlush))
	b.Update(d(0), 0x400100, 0xa0, predictor.UncondDirect)
	b.Update(d(1), 0x500100, 0xb0, predictor.UncondDirect)
	b.FlushThread(0)
	if _, hit := b.Lookup(d(0), 0x400100); hit {
		t.Fatal("thread 0 entry survived FlushThread(0)")
	}
	if _, hit := b.Lookup(d(1), 0x500100); !hit {
		t.Fatal("thread 1 entry did not survive FlushThread(0)")
	}
}

func TestBTBControllerIntegration(t *testing.T) {
	// A context switch under CompleteFlush must clear the registered BTB.
	c := ctrl(core.CompleteFlush)
	b := New(FPGAConfig(), c)
	b.Update(d(0), 0x400100, 0xa0, predictor.UncondDirect)
	c.ContextSwitch(0)
	if _, hit := b.Lookup(d(0), 0x400100); hit {
		t.Fatal("CompleteFlush controller event did not flush BTB")
	}
}

func TestBTBOccupancy(t *testing.T) {
	b := New(FPGAConfig(), ctrl(core.Baseline))
	for i := uint64(0); i < 100; i++ {
		// Stride of one fetch granule: each PC maps to its own set.
		b.Update(d(0), 0x400000+i*4, 0xdead, predictor.UncondDirect)
	}
	if got := b.OccupancyOf(0); got != 100 {
		t.Fatalf("occupancy %d, want 100", got)
	}
	if got := b.OccupancyOf(1); got != 0 {
		t.Fatalf("thread 1 occupancy %d, want 0", got)
	}
}

func TestBTBHitRateStats(t *testing.T) {
	b := New(FPGAConfig(), ctrl(core.Baseline))
	b.Update(d(0), 0x100, 0x200, predictor.UncondDirect)
	b.Lookup(d(0), 0x100) // hit
	b.Lookup(d(0), 0x104) // miss
	if hr := b.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
	b.ResetStats()
	if b.HitRate() != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestBTBStorageBits(t *testing.T) {
	b := New(Config{Sets: 256, Ways: 2, TagBits: 12, TargetBits: 32}, ctrl(core.Baseline))
	want := uint64(256 * 2 * (1 + 3 + 12 + 32))
	if b.StorageBits() != want {
		t.Fatalf("StorageBits = %d, want %d", b.StorageBits(), want)
	}
}

func TestBTBPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []Config{{Sets: 3, Ways: 2}, {Sets: 4, Ways: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, ctrl(core.Baseline))
		}()
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(16, ctrl(core.Baseline))
	r.Push(d(0), 0x1000)
	r.Push(d(0), 0x2000)
	if v, ok := r.Pop(d(0)); !ok || v != 0x2000 {
		t.Fatalf("pop = %#x,%v", v, ok)
	}
	if v, ok := r.Pop(d(0)); !ok || v != 0x1000 {
		t.Fatalf("pop = %#x,%v", v, ok)
	}
	if _, ok := r.Pop(d(0)); ok {
		t.Fatal("pop on empty stack succeeded")
	}
}

func TestRASPerThreadPrivate(t *testing.T) {
	r := NewRAS(16, ctrl(core.Baseline))
	r.Push(d(0), 0x1000)
	if _, ok := r.Pop(d(1)); ok {
		t.Fatal("thread 1 popped thread 0's private RAS")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4, ctrl(core.Baseline))
	for i := uint64(1); i <= 6; i++ {
		r.Push(d(0), i*0x10)
	}
	// Last 4 pushed survive: 0x60, 0x50, 0x40, 0x30.
	want := []uint64{0x60, 0x50, 0x40, 0x30}
	for _, w := range want {
		v, ok := r.Pop(d(0))
		if !ok || v != w {
			t.Fatalf("pop = %#x,%v, want %#x", v, ok, w)
		}
	}
}

func TestSharedRASEncoding(t *testing.T) {
	// Shared RAS under XOR: thread 1 pops thread 0's pushed address but
	// decodes garbage — content isolation holds even for the shared stack.
	c := ctrl(core.XOR)
	r := NewSharedRAS(16, c)
	r.Push(d(0), 0x1000)
	v, ok := r.Pop(d(1))
	if !ok {
		t.Fatal("shared stack should pop")
	}
	if v == 0x1000 {
		t.Fatal("cross-thread RAS value decoded successfully under XOR")
	}
}

func TestRASFlush(t *testing.T) {
	r := NewRAS(8, ctrl(core.CompleteFlush))
	r.Push(d(0), 0x1000)
	r.FlushAll()
	if _, ok := r.Pop(d(0)); ok {
		t.Fatal("RAS entry survived flush")
	}
	r.Push(d(1), 0x2000)
	r.FlushThread(0)
	if _, ok := r.Pop(d(1)); !ok {
		t.Fatal("FlushThread(0) cleared thread 1")
	}
}

// btbPinnedSnapshot is the SHA-256 of the snapshot bytes (and the
// per-thread occupancies) that TestBTBSnapshotPinned's fixed
// Update/Lookup/FlushThread/FlushAll sequence leaves behind. It pins the
// set-major way order that FlushThread, Snapshot, Restore and OccupancyOf
// walk, so a change to the BTB's storage layout cannot reorder or lose
// ways unnoticed.
const btbPinnedSnapshot = "ded95cb3dec6c181f4b1e933c9de20854b21eb9b21df7cabb6879a7ba0f912ab"

func TestBTBSnapshotPinned(t *testing.T) {
	h := sha256.New()
	for _, m := range []core.Mechanism{core.Baseline, core.NoisyXOR, core.PreciseFlush} {
		for _, cfg := range []Config{FPGAConfig(), Gem5Config()} {
			b := New(cfg, ctrl(m))
			g := rng.NewSplitMix64(uint64(m)<<8 | uint64(cfg.Sets))
			step := func(n int) {
				for i := 0; i < n; i++ {
					r := g.Next()
					dom := d(core.HWThread(r & 1))
					pc := 0x400000 + (r>>8)&0xfffc
					if r&6 == 0 {
						b.Lookup(dom, pc)
					} else {
						b.Update(dom, pc, r>>20, predictor.Class(r>>2&3))
					}
				}
			}
			step(3000)
			b.FlushThread(0)
			step(1500)
			b.FlushAll()
			step(700)
			b.FlushThread(1)
			step(300)
			var w snap.Writer
			b.Snapshot(&w)
			h.Write(w.Bytes())
			fmt.Fprintf(h, "%d %d\n", b.OccupancyOf(0), b.OccupancyOf(1))

			// Restore into a fresh BTB reproduces the same bytes.
			fresh := New(cfg, ctrl(m))
			r := snap.NewReader(w.Bytes())
			fresh.Restore(r)
			var w2 snap.Writer
			fresh.Snapshot(&w2)
			if r.Err() != nil || r.Remaining() != 0 || !bytes.Equal(w.Bytes(), w2.Bytes()) {
				t.Fatalf("%v/%d sets: snapshot does not round-trip (err %v)", m, cfg.Sets, r.Err())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != btbPinnedSnapshot {
		t.Fatalf("BTB snapshot digest = %s, want %s", got, btbPinnedSnapshot)
	}
}
