package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xorbp/internal/btb"
	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/rng"
)

// The decode fuzzers guard the trust boundary of the wire schema: every
// byte string a bpserve worker or cache loader can receive must either
// decode cleanly or return an error — never panic — and anything that
// decodes must survive a canonical re-encode/re-decode round trip
// unchanged. The committed corpora under testdata/fuzz/ seed the
// interesting shapes; `go test -fuzz=FuzzDecodeSpec` explores from
// there.

// seedGoldens adds every golden encoding as a fuzz seed, so the corpus
// always contains the current canonical forms.
func seedGoldens(f *testing.F, names ...string) {
	f.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatalf("reading golden seed: %v", err)
		}
		f.Add(b)
	}
}

func FuzzDecodeSpec(f *testing.F) {
	seedGoldens(f, "spec.golden.json", "attack_spec.golden.json")
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"attack"}`))
	f.Add([]byte(`{"threads":["gcc","gcc"],"timer":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSpec(b)
		if err != nil {
			return // rejected input; the absence of a panic is the pass
		}
		enc := s.Encode()
		s2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(enc, s2.Encode()) {
			t.Fatalf("decode/encode round trip is not a fixed point:\n%s\n%s", enc, s2.Encode())
		}
		// The cache key is a pure function of the canonical form; two
		// derivations must agree.
		if s.Key() != s2.Key() {
			t.Fatal("equal canonical encodings derive different cache keys")
		}
	})
}

// decodeResultOracle is the reference DecodeResult is checked against:
// strict encoding/json, the decoder it replaced.
func decodeResultOracle(b []byte) (Result, error) {
	var r Result
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&r)
	return r, err
}

// FuzzDecodeResult: DecodeResult accepts only canonical encodings, and
// whatever it accepts must decode under the encoding/json oracle to an
// equal Result, then survive a re-encode/re-decode round trip unchanged.
func FuzzDecodeResult(f *testing.F) {
	seedGoldens(f, "result.golden.json", "attack_result.golden.json")
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"target_mpki":1.5,"elapsed_cycles":9}`))
	empty := goldenResult()
	empty.Others = []cpu.ThreadStats{}
	two := goldenResult()
	two.Others = append(two.Others, two.Target)
	tiny := goldenResult()
	tiny.BTBHitRate = 1e-7
	huge := goldenAttackResult()
	huge.Cycles = math.MaxUint64
	huge.Target.Syscalls = math.MaxUint64
	for _, r := range []Result{empty, two, tiny, huge} {
		f.Add(r.Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		want, err := decodeResultOracle(b)
		if err != nil {
			t.Fatalf("accepted input the oracle rejects (%v):\n%s", err, b)
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("decode differs from the oracle:\n got: %+v\nwant: %+v\n%s", r, want, b)
		}
		enc := r.Encode()
		r2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(enc, r2.Encode()) {
			t.Fatalf("decode/encode round trip is not a fixed point:\n%s\n%s", enc, r2.Encode())
		}
	})
}

// TestDecodeResultRejectsNonCanonical: DecodeResult takes Encode's bytes
// and nothing else — neither the JSON spellings encoding/json would
// accept nor malformed or out-of-range numbers.
func TestDecodeResultRejectsNonCanonical(t *testing.T) {
	golden := string(goldenResult().Encode())
	attack := string(goldenAttackResult().Encode())
	const cycles = `"cycles":123456789`
	// Each variant is valid JSON that the oracle decodes.
	lenient := map[string]string{
		"leading space":    " " + golden,
		"reordered keys":   "{" + strings.TrimSuffix(strings.TrimPrefix(golden, "{"+cycles+","), "}") + "," + cycles + "}",
		"case-folded key":  strings.Replace(golden, `"cycles"`, `"Cycles"`, 1),
		"null attack":      strings.TrimSuffix(golden, "}") + `,"attack":null}`,
		"trailing newline": golden + "\n",
		"spaced attack":    strings.Replace(attack, `"attack":{`, `"attack": {`, 1),
	}
	for name, in := range lenient {
		if _, err := decodeResultOracle([]byte(in)); err != nil {
			t.Fatalf("%s: the oracle rejects the variant, so it tests nothing: %v\n%s", name, err, in)
		}
		if r, err := DecodeResult([]byte(in)); err == nil {
			t.Errorf("%s: accepted non-canonical input as %+v\n%s", name, r, in)
		}
	}
	// Each variant puts one malformed or out-of-range number in a field.
	num := map[string]string{
		"leading zero":   `"cycles":01,`,
		"negative zero":  `"cycles":-0,`,
		"negative uint":  `"cycles":-1,`,
		"uint fraction":  `"cycles":1.5,`,
		"uint exponent":  `"cycles":1e3,`,
		"uint overflow":  `"cycles":18446744073709551616,`,
		"bare point":     `"btb_hit_rate":1.}`,
		"no int part":    `"btb_hit_rate":.5}`,
		"bare exponent":  `"btb_hit_rate":1e}`,
		"float overflow": `"btb_hit_rate":1e400}`,
	}
	for name, field := range num {
		// Splice field over the golden's key, value and the delimiter
		// after it.
		key := field[:strings.IndexByte(field, ':')+1]
		i := strings.Index(golden, key)
		j := i + strings.IndexAny(golden[i:], ",}") + 1
		in := golden[:i] + field + golden[j:]
		if _, err := DecodeResult([]byte(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
		if _, err := decodeResultOracle([]byte(in)); err == nil {
			t.Errorf("%s: the oracle accepts %s", name, in)
		}
	}
}

// TestDecodeResultRandomRoundTrip: seeded random results, spanning the
// uint64 range, every float64 exponent, nil, empty and multi-entry
// Others and negative attack counts, decode from their encoding to the
// value encoded and to the oracle's decode of the same bytes.
func TestDecodeResultRandomRoundTrip(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	g := rng.NewXoshiro256(24)
	u64 := func() uint64 {
		switch g.Intn(4) {
		case 0:
			return uint64(g.Intn(10))
		case 1:
			return math.MaxUint64 - uint64(g.Intn(3))
		default:
			return g.Uint64() >> g.Intn(64)
		}
	}
	stats := func() cpu.ThreadStats {
		return cpu.ThreadStats{Instructions: u64(), Branches: u64(), CondBranches: u64(),
			DirMisp: u64(), EffMisp: u64(), TargMisp: u64(), DecodeRedir: u64(), Syscalls: u64()}
	}
	for i := 0; i < n; i++ {
		r := Result{Cycles: u64(), Target: stats(), PrivSwitches: u64(), CtxSwitches: u64()}
		switch k := g.Intn(4); k {
		case 0: // nil Others
		case 1:
			r.Others = []cpu.ThreadStats{}
		default:
			for j := 0; j < k; j++ {
				r.Others = append(r.Others, stats())
			}
		}
		switch g.Intn(3) {
		case 0:
			r.BTBHitRate = g.Float64()
		case 1:
			r.BTBHitRate = math.Float64frombits(g.Uint64())
			if math.IsNaN(r.BTBHitRate) || math.IsInf(r.BTBHitRate, 0) {
				r.BTBHitRate = math.SmallestNonzeroFloat64
			}
		}
		if g.Intn(2) == 0 {
			r.Attack = &AttackResult{Successes: int(g.Uint64()) >> g.Intn(64), Trials: int(g.Uint64()) >> g.Intn(64)}
		}
		enc := r.Encode()
		got, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("result %d does not decode: %v\n%s", i, err, enc)
		}
		want, err := decodeResultOracle(enc)
		if err != nil {
			t.Fatalf("result %d: oracle: %v\n%s", i, err, enc)
		}
		if !reflect.DeepEqual(got, r) || !reflect.DeepEqual(got, want) {
			t.Fatalf("result %d round trip differs:\n got: %+v\n put: %+v\n oracle: %+v\n%s", i, got, r, want, enc)
		}
	}
}

// FuzzEncodeSpec holds Encode to json.Marshal, the definition of the
// canonical form, on fuzzed field values: every string field takes one
// of the fuzzed strings (so quoting and escaping meet arbitrary bytes),
// every number field a fuzzed value, and threads picks nil, empty or up
// to four Threads entries, with or without an attack payload.
func FuzzEncodeSpec(f *testing.F) {
	f.Add("", "xor", "tage", "gcc", "4M", 4, 7, uint8(7), uint64(1_000_000), uint64(1), int64(16), 2, true)
	f.Add("attack", "<&>", "\"\\", "\x00\x1f\x7f", " é\xff", -1, 255, uint8(0), uint64(math.MaxUint64), uint64(0), int64(math.MinInt64), -1, false)
	f.Fuzz(func(t *testing.T, kind, name, pred, thread, label string, mech, width int, flags uint8, n, m uint64, i int64, threads int, attack bool) {
		s := Spec{
			Kind: kind,
			Opts: core.Options{
				Mechanism:         core.Mechanism(mech),
				Scope:             core.Structure(flags),
				EnhancedPHT:       flags&1 != 0,
				RotateOnPrivilege: flags&2 != 0,
				FlushOnPrivilege:  flags&4 != 0,
				RekeyPeriod:       n,
			},
			Codec:     name,
			Scrambler: label,
			Pred:      pred,
			Cfg: cpu.Config{
				Name:              name + thread,
				FetchWidth:        width,
				MispredictPenalty: m,
				BTBMissPenalty:    n ^ m,
				BTB:               btb.Config{Sets: uint(n), Ways: uint(m), TagBits: uint(n >> 7), TargetBits: uint(m >> 3)},
				RASDepth:          int(i),
				HWThreads:         -width,
			},
			Timer: n + m,
			Scale: Scale{
				WarmupInstr: n, MeasureInstr: m, SMTWarmupInstr: n >> 1, SMTMeasureInstr: m >> 1,
				TimerPeriods: [3]uint64{n, m, n * m},
				TimerLabels:  [3]string{label, thread, kind},
				Seed:         m - n,
			},
		}
		if threads >= 0 {
			s.Threads = []string{}
			for j := 0; j < threads%5; j++ {
				s.Threads = append(s.Threads, thread+label[:min(j, len(label))])
			}
		}
		if attack {
			s.Attack = &AttackSpec{Name: name, Scenario: pred, RekeyPeriod: m, Trials: width, Attempts: int(i), Seed: n}
		}
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from json.Marshal:\n got: %s\nwant: %s", got, want)
		}
	})
}
