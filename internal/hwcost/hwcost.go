// Package hwcost estimates the area and timing overhead of the
// Noisy-XOR-BP hardware (Table 5): the XOR encode/decode stages, the
// index scrambler, and the per-hardware-thread key registers, relative to
// the SRAM structures they attach to.
//
// The paper synthesized RTL with a TSMC 28 nm flow; this package provides
// a transparent first-order model in the CACTI tradition — decoder depth
// grows with log2(entries), array wire delay with sqrt(bits), and the
// added key-distribution network with the same sqrt term — with constants
// calibrated once against the paper's 2-way-256 BTB anchor (+0.94%
// timing, +0.15% area). Ratios, not picoseconds, are the deliverable:
// Table 5 reports percent increases, and the ratio of one XOR stage to an
// SRAM access path is technology-stable to first order (EXPERIMENTS.md,
// "Model substitutions").
package hwcost

import (
	"fmt"
	"math"

	"xorbp/internal/report"
)

// Technology constants (28 nm class, first order).
const (
	// SRAM access path: t = tBase + tDecode*log2(entries) + tWire*sqrt(bits).
	tBasePS   = 180.0
	tDecodePS = 28.0
	tWirePS   = 0.9

	// Added path: one XOR2 stage plus the key-distribution buffering that
	// scales with the physical array dimension.
	tXorPS     = 2.0
	tKeyDistPS = 0.018 // per sqrt(bit)

	// Exposure of the added logic on the critical path. The BTB's tag
	// XOR overlaps the compare; the PHT's sits behind the index hash.
	exposureBTB = 1.0
	exposurePHT = 2.6

	// Area: 6T bitcell with array overhead vs the XOR/scrambler gates.
	// Key registers are a per-core resource shared by every table and are
	// therefore excluded from per-structure area (the paper's convention,
	// which is what makes sub-0.3% figures possible).
	bitcellUM2  = 0.12
	arrayOvhd   = 1.35
	xorGateUM2  = 0.045 // array-pitch-matched XOR column cell
	scramGates  = 1.0   // scrambler XOR per index bit
	keyRegBits  = 128   // content + index key per hardware thread (core-level)
	keyRegFlop  = 1.2
	keyRegShare = 0.0 // amortized at core level, not per table
)

// Structure describes one SRAM structure being secured.
type Structure struct {
	// Name labels the row.
	Name string
	// Entries is the logical entry count.
	Entries uint64
	// EntryBits is the payload width per entry (encoded bits).
	EntryBits uint64
	// IndexBits is the decoder width (scrambled bits).
	IndexBits uint64
	// PHT marks direction tables (different path exposure than the BTB).
	PHT bool
}

// Bits returns the array payload size.
func (s Structure) Bits() float64 { return float64(s.Entries * s.EntryBits) }

// AccessPS estimates the unmodified SRAM access path.
func (s Structure) AccessPS() float64 {
	return tBasePS + tDecodePS*math.Log2(float64(s.Entries)) + tWirePS*math.Sqrt(s.Bits())
}

// AddedPS estimates the extra path delay of Noisy-XOR: the content XOR
// stage plus key distribution, weighted by the structure's exposure.
func (s Structure) AddedPS() float64 {
	exposure := exposureBTB
	if s.PHT {
		exposure = exposurePHT
	}
	return exposure * (tXorPS + tKeyDistPS*math.Sqrt(s.Bits()))
}

// TimingOverhead returns the fractional critical-path increase.
func (s Structure) TimingOverhead() float64 { return s.AddedPS() / s.AccessPS() }

// AreaUM2 estimates the SRAM macro area.
func (s Structure) AreaUM2() float64 { return s.Bits() * bitcellUM2 * arrayOvhd }

// AddedAreaUM2 estimates the added logic: encode + decode XOR columns on
// the row width plus the index scrambler, with the (core-shared) key
// registers amortized per structure by keyRegShare.
func (s Structure) AddedAreaUM2() float64 {
	xors := 2*float64(s.EntryBits) + scramGates*float64(s.IndexBits)
	return xors*xorGateUM2 + keyRegShare*keyRegBits*keyRegFlop
}

// AreaOverhead returns the fractional area increase.
func (s Structure) AreaOverhead() float64 { return s.AddedAreaUM2() / s.AreaUM2() }

// BTBConfigs are the paper's Table 5 BTB rows (2-way, 128/256/512 entries
// per way; tag 12 + target 32 + meta 4 bits per entry).
func BTBConfigs() []Structure {
	mk := func(name string, perWay uint64, idxBits uint64) Structure {
		return Structure{
			Name: name, Entries: 2 * perWay, EntryBits: 48, IndexBits: idxBits,
		}
	}
	return []Structure{
		mk("BTB 2w128", 128, 7),
		mk("BTB 2w256", 256, 8),
		mk("BTB 2w512", 512, 9),
	}
}

// PHTConfigs are the paper's Table 5 TAGE rows (1024/2048/4096 entries
// per tagged table; ~16-bit rows: tag + counter + usefulness).
func PHTConfigs() []Structure {
	mk := func(name string, entries uint64, idxBits uint64) Structure {
		return Structure{
			Name: name, Entries: entries, EntryBits: 16, IndexBits: idxBits, PHT: true,
		}
	}
	return []Structure{
		mk("PHT 1024/table", 1024, 10),
		mk("PHT 2048/table", 2048, 11),
		mk("PHT 4096/table", 4096, 12),
	}
}

// paperAnchor holds the paper's synthesized numbers for reference.
var paperAnchor = map[string][2]float64{ // name -> {timing%, area%}
	"BTB 2w128":      {0.70, 0.24},
	"BTB 2w256":      {0.94, 0.15},
	"BTB 2w512":      {1.46, 0.13},
	"PHT 1024/table": {2.10, 0.11},
	"PHT 2048/table": {1.98, 0.09},
	"PHT 4096/table": {2.01, 0.03},
}

// Table5 renders the area/timing comparison with the paper's synthesis
// anchors alongside the model's estimates.
func Table5() *report.Table {
	t := &report.Table{
		Title: "Table 5: Noisy-XOR-BP area and timing overhead",
		Header: []string{"configuration", "timing (model)", "timing (paper)",
			"area (model)", "area (paper)"},
		Caption: "First-order 28nm model (see package hwcost). Shape targets:\n" +
			"sub-2.5% timing, sub-0.3% area everywhere; area share shrinks as\n" +
			"tables grow (fixed XOR columns vs growing SRAM).",
	}
	rows := append(BTBConfigs(), PHTConfigs()...)
	for _, s := range rows {
		anchor := paperAnchor[s.Name]
		t.AddRow(s.Name,
			fmt.Sprintf("%.2f%%", s.TimingOverhead()*100),
			fmt.Sprintf("%.2f%%", anchor[0]),
			fmt.Sprintf("%.3f%%", s.AreaOverhead()*100),
			fmt.Sprintf("%.2f%%", anchor[1]))
	}
	return t
}
