package experiment

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"xorbp/internal/attack"
	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/rng"
	"xorbp/internal/workload"
)

// rekeySpec builds one divergence-family member at the test scale.
func rekeySpec(period uint64, scale Scale) runSpec {
	s := singleSpec(rekeyOpts(period), workload.SingleCorePairs()[0], 300_000)
	s.scale = scale
	return s
}

// TestForkFamilies checks the family planner's invariants: the chains
// and singles partition the input exactly; only re-key-bearing
// performance specs join families; any spec field other than the re-key
// period keeps specs apart; members sort by ascending period.
func TestForkFamilies(t *testing.T) {
	scale := microScale()
	pairs := workload.SingleCorePairs()
	mk := func(period uint64, mut func(*runSpec)) runSpec {
		s := singleSpec(rekeyOpts(period), pairs[0], 300_000)
		s.scale = scale
		if mut != nil {
			mut(&s)
		}
		return s
	}
	specs := []runSpec{
		mk(4000, nil), // 0: family A
		mk(0, nil),    // 1: single (no re-key)
		mk(1000, nil), // 2: family A
		mk(1000, func(s *runSpec) { s.predName = "gshare" }), // 3: family B (non-inert param)
		mk(2000, nil), // 4: family A
		mk(2000, func(s *runSpec) { s.timer = 77_777 }), // 5: family C (non-inert param)
		mk(3000, func(s *runSpec) { // 6: single (re-key normalizes away)
			s.opts = core.OptionsFor(core.CompleteFlush)
			s.opts.RekeyPeriod = 3000
		}),
		mk(500, func(s *runSpec) { s.predName = "gshare" }), // 7: family B
	}
	chains, singles := forkFamilies(specs)

	count := make(map[int]int)
	for _, ch := range chains {
		if len(ch) == 0 {
			t.Fatal("empty chain")
		}
		for _, i := range ch {
			count[i]++
		}
		for j := 1; j < len(ch); j++ {
			if rekeyOf(specs[ch[j-1]]) >= rekeyOf(specs[ch[j]]) {
				t.Fatalf("chain not ascending by period: %v", ch)
			}
		}
	}
	for _, i := range singles {
		count[i]++
	}
	for i := range specs {
		if count[i] != 1 {
			t.Fatalf("index %d appears %d times across chains+singles", i, count[i])
		}
	}
	want := [][]int{{2, 4, 0}, {7, 3}, {5}}
	if !reflect.DeepEqual(chains, want) {
		t.Fatalf("chains = %v, want %v", chains, want)
	}
	if !reflect.DeepEqual(singles, []int{1, 6}) {
		t.Fatalf("singles = %v, want [1 6]", singles)
	}
}

// TestForkedMatchesStraight is the fork path's correctness gate: a
// divergence family resolved through the fork chain (shared prefix,
// snapshot at each divergence cycle, forked tails) must be byte-
// identical to the same specs each simulated cold — per predictor and
// per encoding mechanism, since the snapshot seam serializes each
// predictor's own tables. The ladder ends in two periods longer than
// the run itself: the first completes before its divergence cycle and
// hands the previous snapshot on unchanged, and the second restores it.
func TestForkedMatchesStraight(t *testing.T) {
	scale := microScale()
	preds := []string{"tage", "gshare", "perceptron", "tournament", "ltage", "tage_sc_l"}
	mechs := []core.Mechanism{core.NoisyXOR, core.XOR}
	if testing.Short() {
		preds = []string{"tage", "tage_sc_l"}
		mechs = []core.Mechanism{core.NoisyXOR}
	}
	for _, pred := range preds {
		for _, mech := range mechs {
			mk := func(period uint64) runSpec {
				o := core.OptionsFor(mech)
				o.RekeyPeriod = period
				s := singleSpec(o, workload.SingleCorePairs()[1], 300_000)
				s.predName = pred
				s.scale = scale
				return s
			}
			// The family's shared prefix (no re-key) runs for base cycles.
			probe := newSim(mk(0))
			probe.advance(cpu.NoCycleLimit)
			base := probe.c.Cycles()
			var specs []runSpec
			for _, period := range []uint64{5_000, 20_000, 60_000, base + 1_000, 2 * base} {
				specs = append(specs, mk(period))
			}

			got := NewExecutor(2).RunBatch(specs)
			for i, s := range specs {
				if want := run(s); !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%s/%s period %d: forked result differs from the straight run:\nforked:   %+v\nstraight: %+v",
						pred, mech, rekeyOf(s), got[i], want)
				}
			}
		}
	}
}

// TestPermutedBatchMatches is a metamorphic invariant: the order in
// which a batch lists its specs changes no result. The batch holds the
// re-key sweep's fork families for three cases with their baselines, a
// duplicated spec and attack jobs; a seeded permutation of it, run on a
// second fresh executor, must give every spec a DeepEqual result. The
// permutation hands at least one chain its members out of period order,
// so forkFamilies must sort them.
func TestPermutedBatchMatches(t *testing.T) {
	scale := microScale()
	timer := scale.TimerPeriods[1]
	var specs []runSpec
	for _, pair := range workload.SingleCorePairs()[:3] {
		specs = append(specs, singleSpec(baselineOpts(), pair, timer))
		for _, p := range NewSessionWith(scale, NewPlanner()).RekeyPeriods() {
			specs = append(specs, singleSpec(rekeyOpts(p), pair, timer))
		}
	}
	for i := range specs {
		specs[i].scale = scale
	}
	specs = append(specs, specs[2])
	for _, name := range attack.Names()[:3] {
		specs = append(specs, attackRunSpec(AttackJob{Attack: name, Opts: core.OptionsFor(core.NoisyXOR),
			Scenario: attack.SingleThreaded, Trials: 10, Attempts: 3, Seed: 1}))
	}

	g := rng.NewXoshiro256(9)
	perm := make([]int, len(specs)) // inside-out Fisher–Yates
	for i := range perm {
		j := g.Intn(i + 1)
		perm[i], perm[j] = perm[j], i
	}
	permuted := make([]runSpec, len(specs))
	for i, j := range perm {
		permuted[i] = specs[j]
	}
	last := make(map[runKey]uint64)
	descending := false
	for _, s := range permuted {
		if forkable(s) {
			pk := specKey(prefixSpec(s))
			descending = descending || rekeyOf(s) < last[pk]
			last[pk] = rekeyOf(s)
		}
	}
	if !descending {
		t.Fatal("the permutation hands every chain its members in period order")
	}

	want := NewExecutor(2).RunBatch(specs)
	got := NewExecutor(2).RunBatch(permuted)
	for i, j := range perm {
		if !reflect.DeepEqual(got[i], want[j]) {
			t.Fatalf("%s: result depends on submission order:\npermuted: %+v\nin order: %+v",
				specLabel(specs[j]), got[i], want[j])
		}
	}
}

// TestSimSnapshotRestoreByteStable: restoring a mid-run snapshot into a
// fresh sim and re-snapshotting must reproduce the donor bytes exactly
// (so a prefix handed along a chain is stable however many times it is
// re-derived), and the restored sim must finish with the donor's result.
func TestSimSnapshotRestoreByteStable(t *testing.T) {
	spec := rekeySpec(40_000, microScale())
	donor := newSim(spec)
	if donor.advance(10_000) {
		t.Fatal("sim completed before the snapshot point; scale too small")
	}
	data := donor.snapshot(nil)

	clone := newSim(spec)
	if err := clone.restore(data); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again := clone.snapshot(nil); !bytes.Equal(again, data) {
		t.Fatal("restored sim re-snapshots differently from the donor bytes")
	}
	donor.advance(cpu.NoCycleLimit)
	clone.advance(cpu.NoCycleLimit)
	if dr, cr := donor.result(), clone.result(); !reflect.DeepEqual(dr, cr) {
		t.Fatalf("restored sim result differs:\ndonor: %+v\nclone: %+v", dr, cr)
	}
}

// TestRekeySweepDeterministicAcrossWorkers: the forked sweep rendered
// serially and with a worker pool must be byte-identical (the fork
// chains schedule deterministically regardless of concurrency).
func TestRekeySweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	scale := microScale()
	serial := NewSessionWith(scale, NewExecutor(1)).RekeySweep().Render()
	parallel := NewSessionWith(scale, NewExecutor(8)).RekeySweep().Render()
	if serial != parallel {
		t.Fatalf("parallel RekeySweep differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestForkSavesWork: the chain must simulate strictly fewer cycles than
// cold runs — observable as each family member continuing from the
// previous member's prefix and handing on a longer one. Each member must
// return a new divergence snapshot and match its straight run; a member
// whose period outlasts the run must hand the previous snapshot on
// unchanged; and a rerun of the family through an executor is served
// from the memo cache without new simulations.
func TestForkSavesWork(t *testing.T) {
	specs := []runSpec{
		rekeySpec(8_000, microScale()),
		rekeySpec(16_000, microScale()),
		rekeySpec(24_000, microScale()),
	}
	var prev []byte
	for _, s := range specs {
		old := bytes.Clone(prev) // the member recycles prev's storage
		got, next := runForked(s, prev)
		if next == nil || bytes.Equal(next, old) {
			t.Fatalf("period %d handed on no new snapshot", rekeyOf(s))
		}
		if want := run(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("period %d: forked result differs from the straight run", rekeyOf(s))
		}
		prev = next
	}
	probe := newSim(rekeySpec(0, microScale()))
	probe.advance(cpu.NoCycleLimit)
	if _, next := runForked(rekeySpec(probe.c.Cycles()+1_000, microScale()), prev); !bytes.Equal(next, prev) {
		t.Fatal("a member completing before its divergence cycle did not hand the previous snapshot on")
	}

	e := NewExecutor(1)
	e.RunBatch(specs)
	if got, want := e.Runs(), uint64(3); got != want {
		t.Fatalf("simulated %d runs, want %d", got, want)
	}
	e.RunBatch(specs)
	if got := e.Runs(); got != 3 {
		t.Fatalf("rerun simulated again: %d total runs", got)
	}
}

// maxForkRatio bounds the fork sweep gate: the eight-period sweep must
// cost less than this many cold runs. The periods sit in the run's last
// fifth, so the chain simulates about one full prefix plus ~1.1 runs'
// worth of tails; 2.5 leaves room for snapshot/restore overhead while
// still failing if forking degrades toward the 8x cost of straight
// re-simulation.
const maxForkRatio = 2.5

// TestForkSweepGate is the fork path's cost gate. An eight-member re-key
// family, with divergence cycles at 80%..94% of one cold run in 2%
// steps, resolves through the fork chain; each member must match its
// straight run byte for byte, and at bench scale the forked sweep must
// cost less than maxForkRatio cold runs in the median of three rounds.
// Each period's straight run is timed next to its forked member, so
// host drift hits both sides alike, and each timed segment starts after
// a forced collection, so neither side pays for the other's garbage.
// Under -short it runs one round at micro scale, where fixed per-member
// costs (construction, snapshot, restore) dwarf the tails, and only
// requires the forked sweep to beat straight re-simulation.
func TestForkSweepGate(t *testing.T) {
	scale, rounds := BenchScale(), 3
	if testing.Short() {
		scale, rounds = microScale(), 1
	}
	// The family's shared prefix (no re-key) anchors the ladder.
	probe := newSim(rekeySpec(0, scale))
	probe.advance(cpu.NoCycleLimit)
	base := probe.c.Cycles()
	periods := make([]uint64, 8)
	for i := range periods {
		periods[i] = base * uint64(80+2*i) / 100
	}

	ratios := make([]float64, rounds)
	var straight, forked time.Duration
	for r := range ratios {
		var prev []byte
		straight, forked = 0, 0
		for _, p := range periods {
			spec := rekeySpec(p, scale)
			runtime.GC()
			start := time.Now()
			want := run(spec)
			straight += time.Since(start)
			runtime.GC()
			start = time.Now()
			var got RunResult
			got, prev = runForked(spec, prev)
			forked += time.Since(start)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("period %d: forked result differs from the straight run:\nforked:   %+v\nstraight: %+v", p, got, want)
			}
		}
		ratios[r] = float64(forked) / (float64(straight) / float64(len(periods)))
		t.Logf("8 periods over %d cycles: forked %v = %.2f cold runs; straight %v (%.1fx the forked sweep)",
			base, forked, ratios[r], straight, float64(straight)/float64(forked))
	}
	if testing.Short() {
		if forked >= straight {
			t.Fatalf("forked sweep (%v) is not faster than straight re-simulation (%v)", forked, straight)
		}
		return
	}
	sort.Float64s(ratios)
	if ratio := ratios[rounds/2]; ratio >= maxForkRatio {
		t.Fatalf("forked sweep costs %.2f cold runs in the median round, want < %.1f", ratio, maxForkRatio)
	}
}

// FuzzSnapshotDecode: sim.restore on arbitrary bytes must never panic —
// corrupt, truncated or hostile snapshots fail through the reader's
// error (and are then discarded by the fork path), exactly like corrupt
// runcache entries are quarantined rather than trusted.
func FuzzSnapshotDecode(f *testing.F) {
	spec := rekeySpec(10_000, quarter(microScale()))
	donor := newSim(spec)
	donor.advance(2_000)
	valid := donor.snapshot(nil)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	mut := append([]byte(nil), valid...)
	mut[0] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		m := newSim(spec)
		if err := m.restore(data); err != nil {
			return // rejected: exactly the quarantine contract
		}
		// An accepted snapshot must leave a runnable sim: advance a
		// bounded slice and assemble a result if it completes.
		if m.advance(m.c.Cycles() + 50_000) {
			_ = m.result()
		}
	})
}
