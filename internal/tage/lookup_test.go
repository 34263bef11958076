package tage

import (
	"bytes"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/workload"
)

// gccStream returns the conditional branches of a gcc event stream.
func gccStream(n int) (pcs []uint64, takens []bool) {
	gen := workload.NewGenerator(workload.MustByName("gcc"), 5)
	evs := make([]workload.BranchEvent, 1024)
	for len(pcs) < n {
		for _, ev := range evs[:gen.NextBatch(evs)] {
			if ev.Class == predictor.CondDirect {
				pcs = append(pcs, ev.PC)
				takens = append(takens, ev.Taken)
			}
		}
	}
	return pcs[:n], takens[:n]
}

// lazyScan is the straightforward lookup: walk the tagged tables from the
// longest history down, hashing each as the walk reaches it, and stop at
// the second tag match.
func lazyScan(t *TAGE, ts *threadState, d core.Domain, pc uint64) (provider, alt int) {
	n := t.nTab
	p := pc >> pcShift
	provider, alt = -1, -1
	for i := n - 1; i >= 0; i-- {
		tb := &t.tabs[i]
		logical := p ^ (p >> tb.pcFold) ^ ts.folds[i].Value()
		idx := tb.guard.ScrambleIndex(logical&tb.idxMask, d, tb.bits)
		tag := (p ^ ts.folds[n+i].Value() ^ (ts.folds[2*n+i].Value() << 1)) & tb.tagMask
		if tb.arr.Get(d, idx)&tb.tagMask != tag {
			continue
		}
		if provider == -1 {
			provider = i
		} else {
			alt = i
			break
		}
	}
	return provider, alt
}

// TestLookupMatchesLazyScan checks that the branch-free lookup picks the
// provider and alternate the longest-first scan picks, branch by branch
// over a gcc stream on two threads, with and without index scrambling.
func TestLookupMatchesLazyScan(t *testing.T) {
	pcs, takens := gccStream(100_000)
	for _, cfg := range []Config{FPGAConfig(), LTAGEConfig()} {
		for _, m := range []core.Mechanism{core.Baseline, core.NoisyXOR} {
			p := New(cfg, ctrl(m))
			both := 0
			for i, pc := range pcs {
				dom := d(core.HWThread(i / 16 & 1))
				ts := p.state(dom.Thread)
				wantProv, wantAlt := lazyScan(p, ts, dom, pc)
				p.Predict(dom, pc)
				if ts.s.provider != wantProv || ts.s.altTable != wantAlt {
					t.Fatalf("%s/%v branch %d: provider/alternate %d/%d, scan %d/%d",
						cfg.Name, m, i, ts.s.provider, ts.s.altTable, wantProv, wantAlt)
				}
				if wantAlt >= 0 {
					both++
					if ts.s.altIdx != ts.s.indexes[wantAlt] {
						t.Fatalf("%s/%v branch %d: alternate index not the alternate table's", cfg.Name, m, i)
					}
				}
				p.Update(dom, pc, takens[i])
			}
			t.Logf("%s/%v: %d of %d lookups had both a provider and an alternate", cfg.Name, m, both, len(pcs))
			if both < len(pcs)/100 {
				t.Fatalf("%s/%v: only %d of %d lookups had both a provider and an alternate", cfg.Name, m, both, len(pcs))
			}
		}
	}
}

func snapshotOf(p *TAGE) []byte {
	var w snap.Writer
	p.Snapshot(&w)
	return w.Bytes()
}

// TestAgingAfterRestore restores a predictor at a tick that is not a
// multiple of the aging period and checks that it ages on the same
// updates as the original: the two stay byte-identical across several
// aging passes that each clear live usefulness bits.
func TestAgingAfterRestore(t *testing.T) {
	cfg := FPGAConfig()
	cfg.UResetPeriod = 64
	pcs, takens := gccStream(600)
	orig := New(cfg, ctrl(core.Baseline))
	step := func(p *TAGE, i int) {
		p.Predict(d(0), pcs[i])
		p.Update(d(0), pcs[i], takens[i])
	}
	const cut = 150 // 150 % 64 != 0
	for i := 0; i < cut; i++ {
		step(orig, i)
	}
	restored := New(cfg, ctrl(core.Baseline))
	r := snap.NewReader(snapshotOf(orig))
	restored.Restore(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	agingsSeen := 0
	for i := cut; i < len(pcs); i++ {
		live := false
		for _, tb := range orig.tabs {
			for _, u := range tb.u {
				live = live || u > 0
			}
		}
		step(orig, i)
		step(restored, i)
		if orig.tick%cfg.UResetPeriod == 0 && live {
			agingsSeen++
		}
		if !bytes.Equal(snapshotOf(orig), snapshotOf(restored)) {
			t.Fatalf("restored predictor diverged at tick %d", orig.tick)
		}
	}
	if agingsSeen < 3 {
		t.Fatalf("only %d aging passes met live usefulness bits", agingsSeen)
	}
}
