package experiment

import (
	"strings"
	"testing"

	"xorbp/internal/attack"
	"xorbp/internal/core"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

// specOf rebuilds the spec a runKey names: the key holds every field
// the wire form is built from, with the codec and scrambler by registry
// name.
func specOf(t *testing.T, k runKey) runSpec {
	t.Helper()
	codec, ok := core.CodecByName(k.codec)
	if !ok {
		t.Fatalf("key names unknown codec %q", k.codec)
	}
	scrambler, ok := core.ScramblerByName(k.scrambler)
	if !ok {
		t.Fatalf("key names unknown scrambler %q", k.scrambler)
	}
	s := runSpec{kind: k.kind, opts: k.opts, predName: k.predName, cfg: k.cfg,
		timer: k.timer, scale: k.scale, atk: k.atk}
	s.opts.Codec, s.opts.Scrambler = codec, scrambler
	if k.names != "" {
		s.names = strings.Split(k.names, "\x00")
	}
	return s
}

// plannedGrid plans every simulating `bpsim -exp all` experiment at
// micro scale, plus attack jobs across every registered attack,
// scenario, predictor and re-key period.
func plannedGrid() *Executor {
	planner := NewPlanner()
	s := NewSessionWith(MicroScale(), planner)
	s.Figure1()
	s.Figure2()
	s.Figure3()
	s.Figure7()
	s.Figure8()
	s.Figure9()
	s.Figure10()
	s.RekeySweep()
	s.Table4()
	s.MPKI()
	s.BTBResidency()

	noisy := core.OptionsFor(core.NoisyXOR)
	noisy.Codec, noisy.Scrambler = core.RotXORCodec{}, core.FeistelScrambler{}
	var jobs []AttackJob
	for _, name := range attack.Names() {
		info, _ := attack.ByName(name)
		for _, sc := range []attack.Scenario{attack.SingleThreaded, attack.SMT} {
			if info.SingleOnly && sc != attack.SingleThreaded {
				continue
			}
			for _, opts := range []core.Options{core.OptionsFor(core.Baseline), core.OptionsFor(core.XOR), noisy} {
				for _, pred := range []string{"", "gshare"} {
					for _, rekey := range []uint64{0, 4} {
						jobs = append(jobs, AttackJob{Attack: name, Opts: opts, Scenario: sc,
							Pred: pred, RekeyPeriod: rekey, Trials: 10, Attempts: 3, Seed: 1})
					}
				}
			}
		}
	}
	planner.RunAttackBatch(jobs)
	return planner
}

// TestPlannedKeyIsWireKey pins the invariant RunBatch relies on when it
// reuses the wire key Plan stored instead of deriving it again: the
// wire form is built from exactly the runKey's fields, so every spec
// with a given runKey has the wire key planned for that runKey. Each
// planned key's spec is rebuilt from the runKey alone and must hash to
// the planned wire key, in every option spelling that normalizes to it.
// Plan runs straight after the planner's last batch, so it must wait
// for the batches still hashing in the background.
func TestPlannedKeyIsWireKey(t *testing.T) {
	e := NewExecutor(1)
	e.Plan(plannedGrid())
	kinds := map[string]int{}
	for k, c := range e.cells {
		dk := c.dk
		s := specOf(t, k)
		if dk == "" {
			t.Fatalf("%s: planned without its wire key", specLabel(s))
		}
		if specKey(s) != k {
			t.Fatalf("rebuilt spec %s keys differently", specLabel(s))
		}
		if got := specToWire(s).Key(); got != dk {
			t.Fatalf("%s: planned wire key %s, derived %s", specLabel(s), dk, got)
		}
		// The zero values Normalized fills in with the paper defaults.
		zero := s
		if zero.opts.Codec == core.Codec(core.XORCodec{}) {
			zero.opts.Codec = nil
		}
		if zero.opts.Scrambler == core.Scrambler(core.XORScrambler{}) {
			zero.opts.Scrambler = nil
		}
		if zero.opts.Scope == core.StructAll {
			zero.opts.Scope = 0
		}
		if specKey(zero) != k || specToWire(zero).Key() != dk {
			t.Fatalf("%s: the zero option spelling keys differently", specLabel(s))
		}
		kinds[k.kind]++
	}
	if kinds[""] == 0 || kinds[wire.KindAttack] == 0 {
		t.Fatalf("grid covers kinds %v; want performance and attack specs", kinds)
	}
}

// TestWarmReplayAllocs bounds the heap allocations of a warm bpsim
// invocation's engine work per planned cell: Plan a fresh executor over
// a stored Figure 1 grid, then render Figure 1 from the store. A replay
// costs one cell lookup, one store lookup and one result decode. The
// replay path made 38 allocations per cell when it re-derived each wire
// key and built an unread run record, then 21 while results decoded
// through reflective encoding/json, 8.2 once DecodeResult scanned the
// canonical form, and 6.2 now that Plan takes the planner's cells
// instead of allocating a second table; the bound sits between the last
// two. A planner is planned once, so each run plans its own, built
// beforehand: the planner's pass is not the replay's cost.
func TestWarmReplayAllocs(t *testing.T) {
	const bound = 8
	const runs = 10
	scale := microScale()
	dir := t.TempDir()
	cold := storedExec(t, dir, 0)
	NewSessionWith(scale, cold).Figure1()
	planners := make([]*Executor, runs+1) // AllocsPerRun adds a warm-up run
	for i := range planners {
		planners[i] = NewPlanner()
		NewSessionWith(scale, planners[i]).Figure1()
		planners[i].PlannedKeys() // wait out the background hashing
	}
	st, err := runcache.Open(dir, SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	var warm *Executor
	allocs := testing.AllocsPerRun(runs, func() {
		warm = NewExecutor(1)
		warm.SetStore(st)
		warm.Plan(planners[0])
		planners = planners[1:]
		NewSessionWith(scale, warm).Figure1()
	})
	if warm.Runs() != 0 || warm.Replays() != warm.Planned() {
		t.Fatalf("warm Figure 1 simulated %d and replayed %d of %d cells",
			warm.Runs(), warm.Replays(), warm.Planned())
	}
	perCell := allocs / float64(warm.Planned())
	t.Logf("%.1f allocations per replayed cell", perCell)
	if perCell >= bound {
		t.Fatalf("a warm replay allocates %.1f objects per cell, want < %d", perCell, bound)
	}
}
