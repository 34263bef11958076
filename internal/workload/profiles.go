package workload

import "fmt"

// Profiles models the SPEC CPU 2006 benchmarks used in Table 3. The
// parameters are synthetic stand-ins chosen from public characterisations
// of each benchmark: control-flow footprint (regions/sites), branch
// density (GapMean ≈ 1/ratio - 1), predictability mix, loop structure,
// indirect-branch usage and syscall rate. See "Model substitutions" in
// EXPERIMENTS.md for the substitution argument.
//
// The paper quotes several anchors these profiles are calibrated against
// (cmd/diag prints the measured values): gcc has a 12.1% conditional
// branch ratio and ~90.1% PHT accuracy; calculix 8.1% and 94.0%; gromacs
// 4.8% and 88.9%; GemsFDTD 7.6%; libquantum reaches 99.3% BTB accuracy
// with a tiny hot loop set; gobmk has a large footprint with heavy BTB
// residency; Table 4's privilege-switch rates (1.6–7.0 per Mcycle) set
// the syscall parameters.
//
// The fractions Pattern+Corr+Biased leave a small remainder of unbiased
// random sites — the genuinely unpredictable floor that separates hard
// (gobmk, sjeng, mcf) from easy (lbm, libquantum) benchmarks.
var profiles = map[string]Profile{
	"gcc": {
		Name: "gcc", Regions: 420, SitesMin: 3, SitesMax: 10, ZipfS: 0.85,
		GapMean: 7, LoopFrac: 0.30, PatternFrac: 0.367, CorrFrac: 0.298,
		BiasedFrac: 0.300, TripMin: 2, TripMax: 24, PatternPeriodMax: 14,
		BiasMin: 0.935, IndirectFrac: 0.14, IndirectTargets: 6, CallFrac: 0.5,
		SyscallPer10K: 0.0134, PhasePeriod: 2500, CodeBase: 0x10000000,
	},
	"calculix": {
		Name: "calculix", Regions: 150, SitesMin: 2, SitesMax: 7, ZipfS: 1.1,
		GapMean: 11, LoopFrac: 0.55, PatternFrac: 0.356, CorrFrac: 0.267,
		BiasedFrac: 0.357, TripMin: 4, TripMax: 60, PatternPeriodMax: 10,
		BiasMin: 0.935, IndirectFrac: 0.04, IndirectTargets: 4, CallFrac: 0.35,
		SyscallPer10K: 0.0069, PhasePeriod: 0, CodeBase: 0x11000000,
	},
	"milc": {
		Name: "milc", Regions: 60, SitesMin: 2, SitesMax: 5, ZipfS: 1.2,
		GapMean: 14, LoopFrac: 0.65, PatternFrac: 0.312, CorrFrac: 0.241,
		BiasedFrac: 0.432, TripMin: 8, TripMax: 80, PatternPeriodMax: 8,
		BiasMin: 0.945, IndirectFrac: 0.03, IndirectTargets: 4, CallFrac: 0.3,
		SyscallPer10K: 0.0055, PhasePeriod: 0, CodeBase: 0x12000000,
	},
	"povray": {
		Name: "povray", Regions: 260, SitesMin: 3, SitesMax: 9, ZipfS: 0.9,
		GapMean: 8, LoopFrac: 0.25, PatternFrac: 0.309, CorrFrac: 0.326,
		BiasedFrac: 0.324, TripMin: 2, TripMax: 12, PatternPeriodMax: 12,
		BiasMin: 0.915, IndirectFrac: 0.18, IndirectTargets: 8, CallFrac: 0.6,
		SyscallPer10K: 0.0245, PhasePeriod: 1800, CodeBase: 0x13000000,
	},
	"bzip2_source": {
		Name: "bzip2_source", Regions: 90, SitesMin: 3, SitesMax: 8, ZipfS: 1.0,
		GapMean: 6, LoopFrac: 0.45, PatternFrac: 0.367, CorrFrac: 0.262,
		BiasedFrac: 0.341, TripMin: 4, TripMax: 50, PatternPeriodMax: 12,
		BiasMin: 0.920, IndirectFrac: 0.05, IndirectTargets: 4, CallFrac: 0.3,
		SyscallPer10K: 0.0027, PhasePeriod: 3000, CodeBase: 0x14000000,
	},
	"soplex": {
		Name: "soplex", Regions: 210, SitesMin: 2, SitesMax: 8, ZipfS: 0.95,
		GapMean: 9, LoopFrac: 0.40, PatternFrac: 0.321, CorrFrac: 0.294,
		BiasedFrac: 0.349, TripMin: 3, TripMax: 40, PatternPeriodMax: 10,
		BiasMin: 0.915, IndirectFrac: 0.08, IndirectTargets: 5, CallFrac: 0.45,
		SyscallPer10K: 0.0027, PhasePeriod: 2200, CodeBase: 0x15000000,
	},
	"namd": {
		Name: "namd", Regions: 70, SitesMin: 2, SitesMax: 6, ZipfS: 1.15,
		GapMean: 16, LoopFrac: 0.60, PatternFrac: 0.327, CorrFrac: 0.238,
		BiasedFrac: 0.422, TripMin: 8, TripMax: 100, PatternPeriodMax: 8,
		BiasMin: 0.945, IndirectFrac: 0.02, IndirectTargets: 4, CallFrac: 0.3,
		SyscallPer10K: 0.0008, PhasePeriod: 0, CodeBase: 0x16000000,
	},
	"sphinx3": {
		Name: "sphinx3", Regions: 160, SitesMin: 2, SitesMax: 7, ZipfS: 1.0,
		GapMean: 9, LoopFrac: 0.45, PatternFrac: 0.334, CorrFrac: 0.272,
		BiasedFrac: 0.374, TripMin: 4, TripMax: 48, PatternPeriodMax: 10,
		BiasMin: 0.925, IndirectFrac: 0.06, IndirectTargets: 5, CallFrac: 0.4,
		SyscallPer10K: 0.0046, PhasePeriod: 2600, CodeBase: 0x17000000,
	},
	"hmmer": {
		Name: "hmmer", Regions: 40, SitesMin: 2, SitesMax: 5, ZipfS: 1.3,
		GapMean: 7, LoopFrac: 0.70, PatternFrac: 0.328, CorrFrac: 0.239,
		BiasedFrac: 0.425, TripMin: 10, TripMax: 120, PatternPeriodMax: 6,
		BiasMin: 0.955, IndirectFrac: 0.01, IndirectTargets: 4, CallFrac: 0.2,
		SyscallPer10K: 0.0018, PhasePeriod: 0, CodeBase: 0x18000000,
	},
	"GemsFDTD": {
		Name: "GemsFDTD", Regions: 80, SitesMin: 2, SitesMax: 6, ZipfS: 1.1,
		GapMean: 12, LoopFrac: 0.60, PatternFrac: 0.327, CorrFrac: 0.238,
		BiasedFrac: 0.421, TripMin: 8, TripMax: 90, PatternPeriodMax: 8,
		BiasMin: 0.955, IndirectFrac: 0.02, IndirectTargets: 4, CallFrac: 0.25,
		SyscallPer10K: 0.0017, PhasePeriod: 0, CodeBase: 0x19000000,
	},
	"gobmk": {
		Name: "gobmk", Regions: 520, SitesMin: 3, SitesMax: 11, ZipfS: 0.75,
		GapMean: 7, LoopFrac: 0.22, PatternFrac: 0.295, CorrFrac: 0.297,
		BiasedFrac: 0.357, TripMin: 2, TripMax: 14, PatternPeriodMax: 10,
		BiasMin: 0.905, IndirectFrac: 0.10, IndirectTargets: 7, CallFrac: 0.55,
		SyscallPer10K: 0.0031, PhasePeriod: 1500, CodeBase: 0x1a000000,
	},
	"libquantum": {
		Name: "libquantum", Regions: 18, SitesMin: 1, SitesMax: 4, ZipfS: 1.4,
		GapMean: 8, LoopFrac: 0.80, PatternFrac: 0.311, CorrFrac: 0.214,
		BiasedFrac: 0.471, TripMin: 16, TripMax: 200, PatternPeriodMax: 6,
		BiasMin: 0.965, IndirectFrac: 0.0, IndirectTargets: 0, CallFrac: 0.15,
		SyscallPer10K: 0.0011, PhasePeriod: 0, CodeBase: 0x1b000000,
	},
	"gromacs": {
		Name: "gromacs", Regions: 130, SitesMin: 2, SitesMax: 6, ZipfS: 1.0,
		GapMean: 20, LoopFrac: 0.45, PatternFrac: 0.297, CorrFrac: 0.251,
		BiasedFrac: 0.401, TripMin: 4, TripMax: 60, PatternPeriodMax: 8,
		BiasMin: 0.885, IndirectFrac: 0.03, IndirectTargets: 4, CallFrac: 0.3,
		SyscallPer10K: 0.0019, PhasePeriod: 0, CodeBase: 0x1c000000,
	},
	"mcf": {
		Name: "mcf", Regions: 34, SitesMin: 2, SitesMax: 6, ZipfS: 1.1,
		GapMean: 9, LoopFrac: 0.35, PatternFrac: 0.281, CorrFrac: 0.254,
		BiasedFrac: 0.410, TripMin: 2, TripMax: 30, PatternPeriodMax: 8,
		BiasMin: 0.895, IndirectFrac: 0.02, IndirectTargets: 4, CallFrac: 0.25,
		SyscallPer10K: 0.0038, PhasePeriod: 0, CodeBase: 0x1d000000,
	},
	"astar": {
		Name: "astar", Regions: 48, SitesMin: 2, SitesMax: 6, ZipfS: 1.05,
		GapMean: 8, LoopFrac: 0.35, PatternFrac: 0.292, CorrFrac: 0.268,
		BiasedFrac: 0.390, TripMin: 2, TripMax: 26, PatternPeriodMax: 8,
		BiasMin: 0.900, IndirectFrac: 0.03, IndirectTargets: 4, CallFrac: 0.3,
		SyscallPer10K: 0.0028, PhasePeriod: 1200, CodeBase: 0x1e000000,
	},
	"perlbench": {
		Name: "perlbench", Regions: 340, SitesMin: 3, SitesMax: 9, ZipfS: 0.9,
		GapMean: 7, LoopFrac: 0.28, PatternFrac: 0.323, CorrFrac: 0.309,
		BiasedFrac: 0.333, TripMin: 2, TripMax: 18, PatternPeriodMax: 12,
		BiasMin: 0.925, IndirectFrac: 0.20, IndirectTargets: 10, CallFrac: 0.6,
		SyscallPer10K: 0.0108, PhasePeriod: 2000, CodeBase: 0x1f000000,
	},
	"bwaves": {
		Name: "bwaves", Regions: 46, SitesMin: 2, SitesMax: 5, ZipfS: 1.25,
		GapMean: 15, LoopFrac: 0.70, PatternFrac: 0.304, CorrFrac: 0.229,
		BiasedFrac: 0.456, TripMin: 10, TripMax: 140, PatternPeriodMax: 6,
		BiasMin: 0.950, IndirectFrac: 0.01, IndirectTargets: 4, CallFrac: 0.2,
		SyscallPer10K: 0.0031, PhasePeriod: 0, CodeBase: 0x20000000,
	},
	"zeusmp": {
		Name: "zeusmp", Regions: 70, SitesMin: 2, SitesMax: 6, ZipfS: 1.15,
		GapMean: 13, LoopFrac: 0.62, PatternFrac: 0.35, CorrFrac: 0.20,
		BiasedFrac: 0.438, TripMin: 8, TripMax: 100, PatternPeriodMax: 8,
		BiasMin: 0.95, IndirectFrac: 0.02, IndirectTargets: 4, CallFrac: 0.25,
		SyscallPer10K: 0.0028, PhasePeriod: 0, CodeBase: 0x21000000,
	},
	"lbm": {
		Name: "lbm", Regions: 16, SitesMin: 1, SitesMax: 4, ZipfS: 1.4,
		GapMean: 18, LoopFrac: 0.80, PatternFrac: 0.25, CorrFrac: 0.15,
		BiasedFrac: 0.587, TripMin: 20, TripMax: 220, PatternPeriodMax: 4,
		BiasMin: 0.97, IndirectFrac: 0.0, IndirectTargets: 0, CallFrac: 0.1,
		SyscallPer10K: 0.0011, PhasePeriod: 0, CodeBase: 0x22000000,
	},
	"dealII": {
		Name: "dealII", Regions: 280, SitesMin: 2, SitesMax: 8, ZipfS: 0.95,
		GapMean: 9, LoopFrac: 0.38, PatternFrac: 0.32, CorrFrac: 0.25,
		BiasedFrac: 0.405, TripMin: 3, TripMax: 36, PatternPeriodMax: 10,
		BiasMin: 0.90, IndirectFrac: 0.12, IndirectTargets: 6, CallFrac: 0.5,
		SyscallPer10K: 0.0030, PhasePeriod: 2400, CodeBase: 0x23000000,
	},
	"leslie3d": {
		Name: "leslie3d", Regions: 60, SitesMin: 2, SitesMax: 5, ZipfS: 1.2,
		GapMean: 14, LoopFrac: 0.68, PatternFrac: 0.304, CorrFrac: 0.229,
		BiasedFrac: 0.455, TripMin: 10, TripMax: 120, PatternPeriodMax: 6,
		BiasMin: 0.950, IndirectFrac: 0.01, IndirectTargets: 4, CallFrac: 0.2,
		SyscallPer10K: 0.0021, PhasePeriod: 0, CodeBase: 0x24000000,
	},
	"sjeng": {
		Name: "sjeng", Regions: 150, SitesMin: 3, SitesMax: 8, ZipfS: 0.85,
		GapMean: 8, LoopFrac: 0.22, PatternFrac: 0.286, CorrFrac: 0.284,
		BiasedFrac: 0.379, TripMin: 2, TripMax: 12, PatternPeriodMax: 8,
		BiasMin: 0.905, IndirectFrac: 0.08, IndirectTargets: 6, CallFrac: 0.45,
		SyscallPer10K: 0.0034, PhasePeriod: 1400, CodeBase: 0x25000000,
	},
	"h264ref": {
		Name: "h264ref", Regions: 120, SitesMin: 2, SitesMax: 7, ZipfS: 1.05,
		GapMean: 8, LoopFrac: 0.50, PatternFrac: 0.358, CorrFrac: 0.259,
		BiasedFrac: 0.363, TripMin: 4, TripMax: 44, PatternPeriodMax: 12,
		BiasMin: 0.930, IndirectFrac: 0.06, IndirectTargets: 5, CallFrac: 0.4,
		SyscallPer10K: 0.0028, PhasePeriod: 2000, CodeBase: 0x26000000,
	},
	"omnetpp": {
		Name: "omnetpp", Regions: 200, SitesMin: 2, SitesMax: 8, ZipfS: 0.9,
		GapMean: 8, LoopFrac: 0.25, PatternFrac: 0.298, CorrFrac: 0.299,
		BiasedFrac: 0.363, TripMin: 2, TripMax: 16, PatternPeriodMax: 10,
		BiasMin: 0.910, IndirectFrac: 0.16, IndirectTargets: 8, CallFrac: 0.55,
		SyscallPer10K: 0.0045, PhasePeriod: 1600, CodeBase: 0x27000000,
	},
}

// KernelProfile models the syscall/interrupt handler footprint executed
// on each privilege switch: a modest set of biased kernel branches.
func KernelProfile() Profile {
	return Profile{
		Name: "kernel", Regions: 24, SitesMin: 2, SitesMax: 5, ZipfS: 1.1,
		GapMean: 6, LoopFrac: 0.25, PatternFrac: 0.10, CorrFrac: 0.10,
		BiasedFrac: 0.74, TripMin: 2, TripMax: 10, PatternPeriodMax: 6,
		BiasMin: 0.85, IndirectFrac: 0.10, IndirectTargets: 5, CallFrac: 0.4,
		SyscallPer10K: 0, PhasePeriod: 0, CodeBase: 0xffff00000000,
	}
}

// ByName returns the profile for a modelled benchmark.
func ByName(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// MustByName is ByName for static names; it panics on unknown names.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists the modelled benchmarks.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	return out
}

// Pair is a two-benchmark combination from Table 3.
type Pair struct {
	ID     string // "case1" .. "case12"
	First  string // target benchmark (single-thread runs measure this one)
	Second string
}

// SingleCorePairs is Table 3's single-threaded column: the target
// benchmark first, the context-switch background second.
func SingleCorePairs() []Pair {
	return []Pair{
		{"case1", "gcc", "calculix"},
		{"case2", "milc", "povray"},
		{"case3", "bzip2_source", "soplex"},
		{"case4", "namd", "sphinx3"},
		{"case5", "hmmer", "GemsFDTD"},
		{"case6", "gobmk", "libquantum"},
		{"case7", "gromacs", "GemsFDTD"},
		{"case8", "mcf", "astar"},
		{"case9", "soplex", "hmmer"},
		{"case10", "libquantum", "calculix"},
		{"case11", "mcf", "perlbench"},
		{"case12", "bwaves", "namd"},
	}
}

// SMTPairs is Table 3's SMT-2 column: the two benchmarks run concurrently
// on two hardware threads.
func SMTPairs() []Pair {
	return []Pair{
		{"case1", "zeusmp", "lbm"},
		{"case2", "zeusmp", "dealII"},
		{"case3", "bwaves", "milc"},
		{"case4", "leslie3d", "gromacs"},
		{"case5", "dealII", "sjeng"},
		{"case6", "gromacs", "astar"},
		{"case7", "gobmk", "h264ref"},
		{"case8", "libquantum", "milc"},
		{"case9", "gobmk", "gromacs"},
		{"case10", "milc", "bzip2_source"},
		{"case11", "libquantum", "omnetpp"},
		{"case12", "zeusmp", "gobmk"},
	}
}

// Quad is a four-benchmark combination for the SMT-4 experiment
// (Figure 2). The paper does not list SMT-4 sets; quads are formed by
// joining consecutive SMT-2 pairs, documented in EXPERIMENTS.md.
type Quad struct {
	ID    string
	Names [4]string
}

// SMTQuads returns the SMT-4 sets.
func SMTQuads() []Quad {
	pairs := SMTPairs()
	var quads []Quad
	for i := 0; i+1 < len(pairs); i += 2 {
		quads = append(quads, Quad{
			ID: fmt.Sprintf("quad%d", i/2+1),
			Names: [4]string{
				pairs[i].First, pairs[i].Second,
				pairs[i+1].First, pairs[i+1].Second,
			},
		})
	}
	return quads
}
