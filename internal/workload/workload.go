// Package workload synthesizes deterministic branch streams that stand in
// for the SPEC CPU 2006 benchmarks of the paper's evaluation (Table 3).
//
// No SPEC traces ship with this repository, so each benchmark is modelled
// as a small structured program (EXPERIMENTS.md, "Model
// substitutions"): a set of regions (loop nests) whose branch sites
// exhibit the behaviours that differentiate real predictors —
//
//   - loop branches with stable trip counts (loop predictors win),
//   - periodic per-branch patterns of varying period (local components
//     capture short periods, long-history TAGE tables capture long ones),
//   - branches correlated with an earlier branch's outcome (global
//     history), and
//   - biased and unbiased random branches (statistical correction floor).
//
// Region popularity is Zipf-distributed to model hot/cold code, indirect
// branches rotate through target sets, calls/returns exercise the RAS,
// and syscalls are injected at per-benchmark rates so that privilege-
// switch frequencies land in the range of the paper's Table 4.
package workload

import (
	"math"

	"xorbp/internal/predictor"
	"xorbp/internal/rng"
	"xorbp/internal/snap"

	"xorbp/internal/bitutil"
)

// BranchEvent is one dynamic branch with its resolved outcome. Gap is the
// number of non-branch instructions fetched before it.
type BranchEvent struct {
	PC      uint64
	Target  uint64
	Class   predictor.Class
	Taken   bool
	Gap     uint16
	Syscall bool // a syscall follows this instruction
}

// Snapshot writes one branch event.
func (e *BranchEvent) Snapshot(w *snap.Writer) {
	w.U64(e.PC)
	w.U64(e.Target)
	w.U8(uint8(e.Class))
	w.Bool(e.Taken)
	w.U16(e.Gap)
	w.Bool(e.Syscall)
}

// Restore reads one branch event.
func (e *BranchEvent) Restore(r *snap.Reader) {
	e.PC = r.U64()
	e.Target = r.U64()
	e.Class = predictor.Class(r.U8())
	e.Taken = r.Bool()
	e.Gap = r.U16()
	e.Syscall = r.Bool()
}

// Program produces a deterministic stream of branch events.
type Program interface {
	// Name identifies the benchmark.
	Name() string
	// Next fills ev with the next dynamic branch.
	Next(ev *BranchEvent)
}

// BatchProgram is a Program that can hand out events in bulk. The
// simulator's hot loop refills per-thread event rings through this seam,
// amortizing interface dispatch over whole batches instead of paying it
// per branch. Implementations must produce exactly the stream Next
// would: interleaving Next and NextBatch calls observes one cursor.
type BatchProgram interface {
	Program
	// NextBatch fills evs completely with the next len(evs) dynamic
	// branches and returns the count filled (== len(evs)).
	NextBatch(evs []BranchEvent) int
}

// Batched adapts any Program to BatchProgram. Programs that already
// batch (the Generator, trace replays) are returned unchanged; others
// get a loop-over-Next adapter, so callers can always refill rings with
// one call.
func Batched(p Program) BatchProgram {
	if b, ok := p.(BatchProgram); ok {
		return b
	}
	return singleBatch{p}
}

// singleBatch lifts a single-event Program into the batch interface.
type singleBatch struct{ Program }

//bpvet:hotpath
func (s singleBatch) NextBatch(evs []BranchEvent) int {
	for i := range evs {
		s.Program.Next(&evs[i])
	}
	return len(evs)
}

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	// Name of the modelled benchmark (e.g. "gcc").
	Name string
	// Regions is the number of static code regions (loop nests).
	Regions int
	// SitesMin/SitesMax bound the number of conditional branch sites per
	// region body.
	SitesMin, SitesMax int
	// ZipfS is the region-popularity skew (higher = hotter hot code).
	ZipfS float64
	// GapMean is the mean number of non-branch instructions between
	// branches (≈ 1/branch-ratio - 1).
	GapMean int
	// Behaviour mix: fractions of conditional sites per kind. The
	// remainder beyond these fractions is unbiased random (the
	// unpredictable floor).
	LoopFrac, PatternFrac, CorrFrac, BiasedFrac float64
	// TripMin/TripMax bound loop trip counts.
	TripMin, TripMax int
	// PatternPeriodMax bounds periodic-site period length.
	PatternPeriodMax int
	// BiasMin is the minimum taken-probability of biased sites (they are
	// symmetrically inverted half the time).
	BiasMin float64
	// IndirectFrac is the fraction of regions ending in an indirect jump.
	IndirectFrac float64
	// IndirectTargets is the number of targets per indirect site.
	IndirectTargets int
	// CallFrac is the fraction of region invocations entered via call
	// (exercising the RAS).
	CallFrac float64
	// SyscallPer10K is the expected number of syscalls per 10,000
	// instructions (sets the Table 4 privilege-switch rate).
	SyscallPer10K float64
	// PhasePeriod is the number of region invocations between phase
	// changes (0 = single phase). Phases shift the hot region set,
	// modelling program phases.
	PhasePeriod int
	// CodeBase is the base PC of the program's code.
	CodeBase uint64
}

// site kinds.
type siteKind uint8

const (
	siteLoop siteKind = iota
	sitePattern
	siteCorr
	siteBiased
	siteRandom
)

// site is one static conditional branch.
type site struct {
	pc   uint64
	kind siteKind

	// pattern state
	pattern []bool
	pos     int

	// correlation: this site repeats (possibly inverted) the outcome of
	// body site srcIdx earlier in the same iteration — a global-history
	// correlation at branch distance idx-srcIdx.
	srcIdx int
	invert bool

	// biased sites
	bias float64

	// loop sites
	trip int
}

// region is a loop nest: a body of conditional sites, an optional loop
// branch, an optional trailing indirect jump, and the region's entry
// call/return pair.
type region struct {
	id       int
	body     []site
	loopSite *site // loop-back branch; nil = straight-line region
	indirect *site
	targets  []uint64
	callPC   uint64
	retPC    uint64
	entry    uint64
}

// Generator implements Program for a Profile.
type Generator struct {
	prof Profile
	rng  *rng.Xoshiro256
	zipf *bitutil.Zipf

	regions []region

	// generated-event buffer (one region invocation at a time)
	buf []BranchEvent
	pos int

	// outcome history per region for correlated sites:
	// hist[regionID][siteIdx] ring of recent outcomes.
	hist [][]bool

	phase       int
	invocations int

	instRetired uint64
	sysAccum    float64
}

// NewGenerator builds a deterministic generator for prof; seed
// diversifies runs (the same seed reproduces the same stream).
func NewGenerator(prof Profile, seed uint64) *Generator {
	if prof.Regions <= 0 || prof.SitesMin <= 0 || prof.SitesMax < prof.SitesMin {
		panic("workload: invalid profile geometry")
	}
	g := &Generator{
		prof: prof,
		rng:  rng.NewXoshiro256(rng.Mix64(seed ^ hashName(prof.Name))),
		zipf: bitutil.NewZipf(prof.Regions, prof.ZipfS),
	}
	g.build()
	return g
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// build lays out the static program.
func (g *Generator) build() {
	pc := g.prof.CodeBase
	nextPC := func() uint64 {
		pc += 4 * uint64(1+g.rng.Intn(4))
		return pc
	}
	for r := 0; r < g.prof.Regions; r++ {
		nSites := g.prof.SitesMin
		if g.prof.SitesMax > g.prof.SitesMin {
			nSites += g.rng.Intn(g.prof.SitesMax - g.prof.SitesMin + 1)
		}
		reg := region{id: r, entry: nextPC(), callPC: nextPC(), retPC: nextPC()}
		for i := 0; i < nSites; i++ {
			s := site{pc: nextPC()}
			u := g.rng.Float64()
			switch {
			case u < g.prof.PatternFrac:
				s.kind = sitePattern
				period := 2 + g.rng.Intn(max(1, g.prof.PatternPeriodMax-1))
				s.pattern = make([]bool, period)
				for j := range s.pattern {
					s.pattern[j] = g.rng.Bool(0.5)
				}
			case u < g.prof.PatternFrac+g.prof.CorrFrac && i > 0:
				s.kind = siteCorr
				s.srcIdx = g.rng.Intn(i)
				s.invert = g.rng.Bool(0.3)
			case u < g.prof.PatternFrac+g.prof.CorrFrac+g.prof.BiasedFrac:
				s.kind = siteBiased
				s.bias = g.prof.BiasMin + g.rng.Float64()*(0.99-g.prof.BiasMin)
				if g.rng.Bool(0.5) {
					s.bias = 1 - s.bias
				}
			default:
				s.kind = siteRandom
			}
			reg.body = append(reg.body, s)
		}
		// Loop-back branch with a stable trip count for LoopFrac of
		// regions.
		if g.rng.Float64() < g.prof.LoopFrac {
			trip := g.prof.TripMin
			if g.prof.TripMax > g.prof.TripMin {
				trip += g.rng.Intn(g.prof.TripMax - g.prof.TripMin + 1)
			}
			reg.loopSite = &site{pc: nextPC(), kind: siteLoop, trip: trip}
		}
		if g.rng.Float64() < g.prof.IndirectFrac && g.prof.IndirectTargets > 1 {
			reg.indirect = &site{pc: nextPC(), kind: sitePattern}
			for t := 0; t < g.prof.IndirectTargets; t++ {
				reg.targets = append(reg.targets, nextPC())
			}
		}
		g.regions = append(g.regions, reg)
		g.hist = append(g.hist, make([]bool, len(reg.body)))
	}
}

// Name implements Program.
func (g *Generator) Name() string { return g.prof.Name }

// Next implements Program.
//
//bpvet:hotpath
func (g *Generator) Next(ev *BranchEvent) {
	for g.pos >= len(g.buf) {
		g.refill()
	}
	*ev = g.buf[g.pos]
	g.pos++
}

// NextBatch implements BatchProgram: whole region invocations are copied
// out of the generation buffer at memmove speed, refilling as needed.
// It shares the Next cursor, so mixing the two APIs is safe.
//
//bpvet:hotpath
func (g *Generator) NextBatch(evs []BranchEvent) int {
	n := 0
	for n < len(evs) {
		if g.pos >= len(g.buf) {
			g.refill()
		}
		c := copy(evs[n:], g.buf[g.pos:])
		g.pos += c
		n += c
	}
	return n
}

// gap draws the non-branch instruction count before a branch.
func (g *Generator) gap() uint16 {
	m := g.prof.GapMean
	if m < 1 {
		m = 1
	}
	return uint16(1 + g.rng.Intn(2*m-1))
}

// emit appends an event, deciding syscall injection from the accumulated
// instruction count.
func (g *Generator) emit(pc, target uint64, class predictor.Class, taken bool) {
	e := BranchEvent{PC: pc, Target: target, Class: class, Taken: taken, Gap: g.gap()}
	n := uint64(e.Gap) + 1
	g.instRetired += n
	g.sysAccum += float64(n) * g.prof.SyscallPer10K / 10000
	if g.sysAccum >= 1 {
		g.sysAccum--
		e.Syscall = true
	}
	g.buf = append(g.buf, e) //bpvet:allow amortized: refill truncates to buf[:0], so capacity is reused after the first invocation
}

// outcomeOf resolves one conditional site's direction.
func (g *Generator) outcomeOf(reg *region, idx int) bool {
	s := &reg.body[idx]
	var out bool
	switch s.kind {
	case sitePattern:
		out = s.pattern[s.pos]
		s.pos = (s.pos + 1) % len(s.pattern)
	case siteCorr:
		out = g.hist[reg.id][s.srcIdx] != s.invert
	case siteBiased:
		out = g.rng.Bool(s.bias)
	default: // siteRandom
		out = g.rng.Bool(0.5)
	}
	g.hist[reg.id][idx] = out
	return out
}

// refill generates one region invocation into the buffer.
func (g *Generator) refill() {
	g.buf = g.buf[:0]
	g.pos = 0
	g.invocations++
	if g.prof.PhasePeriod > 0 && g.invocations%g.prof.PhasePeriod == 0 {
		g.phase++
	}

	// Pick a region: Zipf rank rotated by the phase so the hot set
	// drifts.
	rank := g.zipf.Sample(g.rng)
	ri := (rank + g.phase*7) % len(g.regions)
	reg := &g.regions[ri]

	// Optionally enter via call.
	called := g.rng.Float64() < g.prof.CallFrac
	if called {
		g.emit(reg.callPC, reg.entry, predictor.Call, true)
	}

	trips := 1
	if reg.loopSite != nil {
		trips = reg.loopSite.trip
	}
	for it := 0; it < trips; it++ {
		for i := range reg.body {
			s := &reg.body[i]
			taken := g.outcomeOf(reg, i)
			tgt := s.pc + 16
			g.emit(s.pc, tgt, predictor.CondDirect, taken)
		}
		if reg.loopSite != nil {
			// Loop-back: taken while iterations remain.
			g.emit(reg.loopSite.pc, reg.entry, predictor.CondDirect, it+1 < trips)
		}
	}
	if reg.indirect != nil {
		// Rotate deterministically through the target set with occasional
		// random jumps, a switch-dispatch shape.
		s := reg.indirect
		s.pos = (s.pos + 1) % len(reg.targets)
		ti := s.pos
		if g.rng.Bool(0.15) {
			ti = g.rng.Intn(len(reg.targets))
		}
		g.emit(s.pc, reg.targets[ti], predictor.Indirect, true)
	}
	if called {
		g.emit(reg.retPC, reg.callPC+4, predictor.Return, true)
	}
}

// Snapshot writes the generator's mutable state: the RNG, per-site
// pattern cursors, indirect rotation cursors, the correlation history
// rings, the phase/invocation/accounting counters, and the contents of
// the generation buffer with its read cursor. The static program layout
// (regions, patterns, trip counts, targets) is rebuilt deterministically
// from the profile and seed by NewGenerator, so it is not serialized.
func (g *Generator) Snapshot(w *snap.Writer) {
	g.rng.Snapshot(w)
	for ri := range g.regions {
		reg := &g.regions[ri]
		for i := range reg.body {
			if reg.body[i].kind == sitePattern {
				w.U32(uint32(reg.body[i].pos))
			}
		}
		if reg.indirect != nil {
			w.U32(uint32(reg.indirect.pos))
		}
	}
	for _, h := range g.hist {
		for _, b := range h {
			w.Bool(b)
		}
	}
	w.I64(int64(g.phase))
	w.I64(int64(g.invocations))
	w.U64(g.instRetired)
	w.U64(math.Float64bits(g.sysAccum))
	w.U32(uint32(len(g.buf)))
	for i := range g.buf {
		g.buf[i].Snapshot(w)
	}
	w.U32(uint32(g.pos))
}

// Restore replaces the generator's mutable state from a snapshot taken
// of a generator built from the same profile and seed.
func (g *Generator) Restore(r *snap.Reader) {
	g.rng.Restore(r)
	for ri := range g.regions {
		reg := &g.regions[ri]
		for i := range reg.body {
			if reg.body[i].kind == sitePattern {
				p := int(r.U32())
				if n := len(reg.body[i].pattern); n > 0 && p < n {
					reg.body[i].pos = p
				} else {
					r.Fail("workload: pattern cursor %d out of range", p)
				}
			}
		}
		if reg.indirect != nil {
			p := int(r.U32())
			if n := len(reg.targets); n > 0 && p < n {
				reg.indirect.pos = p
			} else {
				r.Fail("workload: indirect cursor %d out of range", p)
			}
		}
	}
	for _, h := range g.hist {
		for i := range h {
			h[i] = r.Bool()
		}
	}
	g.phase = int(r.I64())
	g.invocations = int(r.I64())
	g.instRetired = r.U64()
	g.sysAccum = math.Float64frombits(r.U64())
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining() {
		r.Fail("workload: buffer length %d exceeds snapshot", n)
		return
	}
	g.buf = g.buf[:0]
	for i := 0; i < n; i++ {
		var e BranchEvent
		e.Restore(r)
		g.buf = append(g.buf, e)
	}
	p := int(r.U32())
	if p < 0 || p > len(g.buf) {
		r.Fail("workload: buffer cursor %d out of range", p)
		return
	}
	g.pos = p
}

// StaticBranches returns the number of static conditional branch sites
// (for footprint diagnostics).
func (g *Generator) StaticBranches() int {
	n := 0
	for i := range g.regions {
		n += len(g.regions[i].body)
		if g.regions[i].loopSite != nil {
			n++
		}
	}
	return n
}

var _ BatchProgram = (*Generator)(nil)

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
