// Package rng provides the deterministic pseudo-random sources used by
// every simulated component in this repository.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny, stateless-feeling mixer used both as a seeding
//     function and as a fast per-index hash (the Enhanced-XOR-PHT word key
//     schedule is built on Mix64).
//   - Xoshiro256: the general-purpose stream generator used for workload
//     synthesis and the hardware random-number-generator model.
//
// All randomness in the simulator must flow from explicitly seeded sources
// so that every experiment is exactly reproducible (see "The
// plan/execute engine" in EXPERIMENTS.md). math/rand is deliberately not
// used: its global state would make results depend on test execution
// order.
package rng

import (
	"math/bits"

	"xorbp/internal/snap"
)

// Mix64 is the SplitMix64 finalizer. It maps a 64-bit value to a
// statistically independent 64-bit value and is its own documentation of
// the constants from Steele et al., "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
//
//bpvet:hotpath
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitMix64 is a counter-based PRNG: each call advances an internal
// counter and returns Mix64 of it. It is used to expand a single seed into
// independent sub-seeds.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Snapshot writes the counter state.
func (s *SplitMix64) Snapshot(w *snap.Writer) { w.U64(s.state) }

// Restore replaces the counter state.
func (s *SplitMix64) Restore(r *snap.Reader) { s.state = r.U64() }

// Xoshiro256 implements xoshiro256** (Blackman & Vigna). It is the
// workhorse generator for workload synthesis: fast, 256-bit state, and
// passes the statistical batteries relevant at simulation scale.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed via
// SplitMix64, as recommended by the xoshiro authors. A zero seed is valid.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	var g Xoshiro256
	sm := NewSplitMix64(seed)
	for i := range g.s {
		g.s[i] = sm.Next()
	}
	return &g
}

// Uint64 returns the next value in the stream.
//
//bpvet:hotpath
func (g *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(g.s[1]*5, 7) * 9
	t := g.s[1] << 17
	g.s[2] ^= g.s[0]
	g.s[3] ^= g.s[1]
	g.s[1] ^= g.s[2]
	g.s[0] ^= g.s[3]
	g.s[2] ^= t
	g.s[3] = bits.RotateLeft64(g.s[3], 45)
	return result
}

// Uint32 returns the high 32 bits of the next value (the high bits of
// xoshiro256** have the best statistical quality).
//
//bpvet:hotpath
func (g *Xoshiro256) Uint32() uint32 { return uint32(g.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
//
//bpvet:hotpath
func (g *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(g.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
//
//bpvet:hotpath
func (g *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire rejection sampling on the 128-bit product.
	for {
		v := g.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
//
//bpvet:hotpath
func (g *Xoshiro256) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
//
//bpvet:hotpath
func (g *Xoshiro256) Bool(p float64) bool { return g.Float64() < p }

// Fork returns a new generator seeded from this one's stream. Forked
// generators produce streams independent of further draws from the parent,
// which keeps sub-components deterministic when the parent's consumption
// pattern changes.
func (g *Xoshiro256) Fork() *Xoshiro256 { return NewXoshiro256(g.Uint64()) }

// Snapshot writes the 256-bit stream state. Restoring it resumes the
// stream at exactly the draw the snapshot was taken at.
func (g *Xoshiro256) Snapshot(w *snap.Writer) {
	w.U64(g.s[0])
	w.U64(g.s[1])
	w.U64(g.s[2])
	w.U64(g.s[3])
}

// Restore replaces the stream state.
func (g *Xoshiro256) Restore(r *snap.Reader) {
	g.s[0] = r.U64()
	g.s[1] = r.U64()
	g.s[2] = r.U64()
	g.s[3] = r.U64()
}

// HWRNG models the dedicated hardware random number generator the paper
// assumes for key generation ("we assume these random numbers can be
// generated using a dedicated hardware mechanism", §5.4). In silicon this
// is a true entropy source; in the simulator it is a seeded stream so that
// experiments replay exactly. The type exists (rather than using
// Xoshiro256 directly) so key-consuming code documents where hardware
// entropy is required.
type HWRNG struct {
	g *Xoshiro256
}

// NewHWRNG returns a hardware RNG model with the given simulation seed.
func NewHWRNG(seed uint64) *HWRNG {
	return &HWRNG{g: NewXoshiro256(Mix64(seed ^ 0x48575f524e47))} // "HW_RNG"
}

// Draw returns the next random key-generation value.
//
//bpvet:hotpath
func (r *HWRNG) Draw() uint64 { return r.g.Uint64() }

// Snapshot writes the entropy stream position.
func (r *HWRNG) Snapshot(w *snap.Writer) { r.g.Snapshot(w) }

// Restore replaces the entropy stream position.
func (r *HWRNG) Restore(rd *snap.Reader) { r.g.Restore(rd) }
