package xorbp

import "testing"

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		why string
		cfg Config
	}{
		{"no benchmarks", Config{}},
		{"unknown benchmark", Config{Benchmarks: []string{"not-a-benchmark"}}},
		{"unknown predictor", Config{Predictor: "nope", Benchmarks: []string{"gcc"}}},
		{"negative thread count", Config{SMTThreads: -1, Benchmarks: []string{"gcc"}}},
		{"more threads than the core has", Config{SMTThreads: 9, Benchmarks: []string{
			"gcc", "mcf", "milc", "lbm", "hmmer", "sjeng", "astar", "povray", "namd"}}},
		{"2 threads for 1 benchmark", Config{SMTThreads: 2, Benchmarks: []string{"gcc"}}},
		{"8 threads for 2 benchmarks", Config{SMTThreads: 8, Benchmarks: []string{"gcc", "mcf"}}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New returned no error", tc.why)
		}
	}
}

func TestRunProducesResult(t *testing.T) {
	s, err := New(Config{
		Isolation:  DefaultOptions(),
		Benchmarks: []string{"gcc", "calculix"},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The window must cover several syscalls (gcc: ~1.3 per Minstr).
	r := s.Run(200_000, 3_000_000)
	if r.Cycles == 0 || r.Instructions < 3_000_000 {
		t.Fatalf("implausible result: %+v", r)
	}
	if r.MPKI <= 0 || r.MPKI > 100 {
		t.Fatalf("implausible MPKI: %v", r.MPKI)
	}
	if r.PrivilegeSwitches == 0 {
		t.Fatal("no privilege switches observed")
	}
}

func TestOverheadSmall(t *testing.T) {
	over, err := Overhead(Config{
		Isolation:  DefaultOptions(),
		Benchmarks: []string{"milc", "povray"},
		Seed:       2,
	}, 1_000_000, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: low single-digit percent.
	if over < -0.02 || over > 0.10 {
		t.Fatalf("Noisy-XOR-BP overhead %.2f%% outside the plausible band", over*100)
	}
}

func TestSMTSystem(t *testing.T) {
	s, err := New(Config{
		Isolation:  OptionsFor(NoisyXOR),
		Predictor:  "ltage",
		SMTThreads: 2,
		Benchmarks: []string{"zeusmp", "lbm"},
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run(500_000, 2_000_000)
	if r.Cycles == 0 {
		t.Fatal("SMT run produced no cycles")
	}
}

func TestRegistryAccessors(t *testing.T) {
	if len(Benchmarks()) < 20 {
		t.Fatalf("expected >= 20 modelled benchmarks, got %d", len(Benchmarks()))
	}
	preds := Predictors()
	want := map[string]bool{"gshare": true, "tournament": true, "ltage": true,
		"tage_sc_l": true, "tage": true}
	for _, p := range preds {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("missing predictors: %v", want)
	}
}

func TestDeterministicFacade(t *testing.T) {
	run := func() Result {
		s, err := New(Config{
			Isolation:  DefaultOptions(),
			Benchmarks: []string{"hmmer", "GemsFDTD"},
			Seed:       9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(100_000, 300_000)
	}
	if run() != run() {
		t.Fatal("facade runs are not deterministic")
	}
}
