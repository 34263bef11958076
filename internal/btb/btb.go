// Package btb implements the Branch Target Buffer and Return Address
// Stack with the paper's isolation hooks: BTB tags and targets pass
// through the content codec (XOR-BTB, §5.1) and the set index through the
// index scrambler (Noisy-XOR-BTB, §5.3).
package btb

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
)

// pcShift drops the instruction alignment bits before indexing (4-byte
// RISC-V / fixed-width fetch granule).
const pcShift = 2

// Config sizes a BTB. The JSON tags define its canonical wire form
// (internal/wire).
type Config struct {
	// Sets is the number of sets (power of two).
	Sets uint `json:"sets"`
	// Ways is the set associativity.
	Ways uint `json:"ways"`
	// TagBits is the stored partial-tag width.
	TagBits uint `json:"tag_bits"`
	// TargetBits is the stored target width (low bits of the target
	// address; commercial BTBs store partial targets).
	TargetBits uint `json:"target_bits"`
}

// FPGAConfig is the paper's FPGA prototype BTB: 256 sets × 2 ways
// (Table 2, "256 × 2-way").
func FPGAConfig() Config {
	return Config{Sets: 256, Ways: 2, TagBits: 12, TargetBits: 32}
}

// Gem5Config is the paper's gem5 SMT model BTB: 1024 sets × 4 ways.
func Gem5Config() Config {
	return Config{Sets: 1024, Ways: 4, TagBits: 14, TargetBits: 32}
}

// entry is one BTB way. Tag and target are stored *encoded*; valid, class
// and owner are architectural control state (the paper encodes tag and
// target: "both the tag and the target address are encoded ... lest an
// attacker could use performance counters as a covert channel", §5.1).
type entry struct {
	valid  bool
	owner  core.HWThread
	class  predictor.Class
	lru    uint8
	tag    uint64
	target uint64
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	cfg       Config
	guard     *core.Guard
	indexBits uint
	// ways holds every way, set-major; sets[i] is set i's view into it,
	// so a Complete Flush is one clear of one slice.
	ways []entry
	sets [][]entry

	// stats
	lookups uint64
	hits    uint64
}

// New builds a BTB and registers it with the controller for flush events.
func New(cfg Config, ctrl *core.Controller) *BTB {
	if !bitutil.IsPow2(uint64(cfg.Sets)) {
		panic("btb: sets must be a power of two")
	}
	if cfg.Ways == 0 {
		panic("btb: zero ways")
	}
	b := &BTB{
		cfg:       cfg,
		guard:     ctrl.Guard(0xb7b, core.StructBTB),
		indexBits: bitutil.Log2(uint64(cfg.Sets)),
		ways:      make([]entry, cfg.Sets*cfg.Ways),
		sets:      make([][]entry, cfg.Sets),
	}
	for i := range b.sets {
		lo := uint(i) * cfg.Ways
		b.sets[i] = b.ways[lo : lo+cfg.Ways : lo+cfg.Ways]
	}
	ctrl.Register(b, core.StructBTB)
	return b
}

// index computes the physical set index for pc under domain d, applying
// the Noisy-XOR index encoding when active.
func (b *BTB) index(d core.Domain, pc uint64) uint64 {
	logical := (pc >> pcShift) & bitutil.Mask(b.indexBits)
	return b.guard.ScrambleIndex(logical, d, b.indexBits)
}

// tagOf extracts the logical (unencoded) tag of pc.
func (b *BTB) tagOf(pc uint64) uint64 {
	return (pc >> (pcShift + b.indexBits)) & bitutil.Mask(b.cfg.TagBits)
}

// Lookup predicts the target of the branch at pc. The stored tags are
// decoded with d's content key before comparison, so an entry written by
// another domain (or before a key rotation) matches only with probability
// 2^-TagBits — the content-isolation property. On a hit the stored target
// is decoded with the same key; a false hit therefore yields a garbage
// target, which the pipeline discovers at execute as a misprediction.
//
//bpvet:hotpath
func (b *BTB) Lookup(d core.Domain, pc uint64) (target uint64, hit bool) {
	b.lookups++
	set := b.sets[b.index(d, pc)]
	want := b.tagOf(pc)
	for i := range set {
		e := &set[i]
		if !e.valid {
			continue
		}
		// Precise Flush carries a thread ID per entry; the same ID gates
		// lookups, which is what defends SMT reuse attacks in Table 1
		// ("attaching the thread ID to each entry can help eliminate
		// malicious reuse across threads", §4.1).
		if b.guard.TracksOwners() && e.owner != d.Thread {
			continue
		}
		got := b.guard.Decode(e.tag, d) & bitutil.Mask(b.cfg.TagBits)
		if got == want {
			b.hits++
			b.touch(set, i)
			return b.guard.Decode(e.target, d) & bitutil.Mask(b.cfg.TargetBits), true
		}
	}
	return 0, false
}

// Update records a taken branch's target. Existing matching entries are
// refreshed; otherwise the LRU way is replaced. Tag and target are
// encoded with d's content key before being stored.
//
//bpvet:hotpath
func (b *BTB) Update(d core.Domain, pc uint64, target uint64, class predictor.Class) {
	set := b.sets[b.index(d, pc)]
	want := b.tagOf(pc)
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && b.guard.Decode(e.tag, d)&bitutil.Mask(b.cfg.TagBits) == want &&
			(!b.guard.TracksOwners() || e.owner == d.Thread) {
			victim = i
			goto write
		}
		if !e.valid {
			victim = i
		} else if set[victim].valid && e.lru < set[victim].lru {
			victim = i
		}
	}
write:
	e := &set[victim]
	e.valid = true
	e.owner = d.Thread
	e.class = class
	e.tag = b.guard.Encode(want, d)
	e.target = b.guard.Encode(target&bitutil.Mask(b.cfg.TargetBits), d)
	b.touch(set, victim)
}

// touch bumps way i to most-recently-used by aging the others.
func (b *BTB) touch(set []entry, i int) {
	for j := range set {
		if set[j].lru > 0 {
			set[j].lru--
		}
	}
	set[i].lru = uint8(len(set))
}

// FlushAll invalidates every entry (Complete Flush).
//
//bpvet:hotpath
func (b *BTB) FlushAll() { clear(b.ways) }

// FlushThread invalidates entries owned by t (Precise Flush). Ownership is
// tracked unconditionally in the BTB because, unlike the PHT, BTB entries
// are wide enough that a thread-ID field is plausible (§4.1).
//
//bpvet:hotpath
func (b *BTB) FlushThread(t core.HWThread) {
	for i := range b.ways {
		if b.ways[i].valid && b.ways[i].owner == t {
			b.ways[i] = entry{}
		}
	}
}

// Snapshot writes every way of every set plus the lookup/hit counters.
// Tags and targets are serialized in their stored (encoded) form, so the
// snapshot round-trips without touching keys.
func (b *BTB) Snapshot(w *snap.Writer) {
	for i := range b.ways {
		e := &b.ways[i]
		w.Bool(e.valid)
		w.U8(uint8(e.owner))
		w.U8(uint8(e.class))
		w.U8(e.lru)
		w.U64(e.tag)
		w.U64(e.target)
	}
	w.U64(b.lookups)
	w.U64(b.hits)
}

// Restore replaces every way and the counters. The snapshot must come
// from a BTB of identical geometry.
func (b *BTB) Restore(r *snap.Reader) {
	for i := range b.ways {
		e := &b.ways[i]
		e.valid = r.Bool()
		e.owner = core.HWThread(r.U8())
		e.class = predictor.Class(r.U8())
		e.lru = r.U8()
		e.tag = r.U64()
		e.target = r.U64()
	}
	b.lookups = r.U64()
	b.hits = r.U64()
}

// OccupancyOf counts valid entries owned by thread t — used to reproduce
// the paper's residual-entry analysis for Figure 7 (gobmk+libquantum
// retain 500–800 entries across switches).
func (b *BTB) OccupancyOf(t core.HWThread) int {
	n := 0
	for i := range b.ways {
		if b.ways[i].valid && b.ways[i].owner == t {
			n++
		}
	}
	return n
}

// HitRate returns the fraction of lookups that hit.
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}

// ResetStats clears the hit/lookup counters (e.g. after warmup).
func (b *BTB) ResetStats() { b.lookups, b.hits = 0, 0 }

// StorageBits reports the modelled SRAM payload: valid + class(3) +
// tag + target per entry (owner/LRU bookkeeping is costed separately by
// the hardware model when Precise Flush is configured).
func (b *BTB) StorageBits() uint64 {
	per := uint64(1 + 3 + b.cfg.TagBits + b.cfg.TargetBits)
	return uint64(b.cfg.Sets) * uint64(b.cfg.Ways) * per
}

// Entries reports the entry count (for the Precise Flush walk cost
// model).
func (b *BTB) Entries() uint64 { return uint64(b.cfg.Sets) * uint64(b.cfg.Ways) }

// Config returns the geometry.
func (b *BTB) Config() Config { return b.cfg }
