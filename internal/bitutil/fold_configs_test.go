package bitutil_test

import (
	"testing"

	"xorbp/internal/bitutil"
	"xorbp/internal/tage"
	"xorbp/internal/tagescl"
)

// foldGeometries lists every (history length, folded width) pair the
// predictors build: TAGE's index and two tag folds per table for the
// FPGA, LTAGE and TAGE-SC-L configurations, and TAGE-SC-L's corrector
// folds.
func foldGeometries() [][2]uint {
	var out [][2]uint
	sc := tagescl.Gem5Config()
	for _, cfg := range []tage.Config{tage.FPGAConfig(), tage.LTAGEConfig(), sc.TAGE} {
		for i, l := range cfg.HistLengths {
			out = append(out,
				[2]uint{l, cfg.TableBits[i]},
				[2]uint{l, cfg.TagBits[i]},
				[2]uint{l, cfg.TagBits[i] - 1})
		}
	}
	for _, l := range sc.GlobalLens {
		out = append(out, [2]uint{l, sc.SCIndexBits})
	}
	return out
}

// shiftFold is the textbook fold step: three variable shifts, the
// top-bit carry folded back by shifting it down.
func shiftFold(c, in, out uint64, origLen, compLen uint) uint64 {
	c = c<<1 | in
	c ^= out << (origLen % compLen)
	c ^= c >> compLen
	return c & (1<<compLen - 1)
}

// TestFoldStepMatchesShiftFormula checks foldStep against the shift
// formula over every reachable folded image of every geometry the
// predictors use, for all four (entering, leaving) bit pairs.
func TestFoldStepMatchesShiftFormula(t *testing.T) {
	for _, g := range foldGeometries() {
		origLen, compLen := g[0], g[1]
		outBit, mask := uint64(1)<<(origLen%compLen), bitutil.Mask(compLen)
		for c := uint64(0); c <= mask; c++ {
			for bits := uint64(0); bits < 4; bits++ {
				in, out := bits&1, bits>>1
				got := bitutil.FoldStep(c, in, out, outBit, mask)
				if want := shiftFold(c, in, out, origLen, compLen); got != want {
					t.Fatalf("L=%d W=%d c=%#x in=%d out=%d: foldStep %#x, shift formula %#x",
						origLen, compLen, c, in, out, got, want)
				}
			}
		}
	}
}
