package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
)

// -update-golden regenerates testdata/ from the current encoding. Run
// it deliberately: committing new goldens IS a schema change.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden wire encodings")

// goldenSpec exercises every Spec field with distinctive values.
func goldenSpec() Spec {
	return Spec{
		Opts: core.Options{
			Mechanism:         core.NoisyXOR,
			Scope:             core.StructAll,
			EnhancedPHT:       true,
			RotateOnPrivilege: true,
			FlushOnPrivilege:  true,
		},
		Codec:     "xor",
		Scrambler: "xor",
		Pred:      "tage",
		Cfg:       cpu.FPGAConfig(),
		Timer:     1_000_000,
		Threads:   []string{"gcc", "calculix"},
		Scale: Scale{
			WarmupInstr:     4_000_000,
			MeasureInstr:    16_000_000,
			SMTWarmupInstr:  8_000_000,
			SMTMeasureInstr: 48_000_000,
			TimerPeriods:    [3]uint64{1_000_000, 2_000_000, 3_000_000},
			TimerLabels:     [3]string{"4M", "8M", "12M"},
			Seed:            1,
		},
	}
}

// goldenResult exercises every Result field, including a populated
// Others slice.
func goldenResult() Result {
	return Result{
		Cycles: 123_456_789,
		Target: cpu.ThreadStats{
			Instructions: 16_000_000, Branches: 3_000_000, CondBranches: 2_500_000,
			DirMisp: 40_000, EffMisp: 42_000, TargMisp: 2_000, DecodeRedir: 9_000,
			Syscalls: 123,
		},
		Others: []cpu.ThreadStats{
			{Instructions: 15_000_000, Branches: 2_800_000, CondBranches: 2_300_000,
				DirMisp: 39_000, EffMisp: 41_000, TargMisp: 1_900, DecodeRedir: 8_500,
				Syscalls: 110},
		},
		PrivSwitches: 456,
		CtxSwitches:  78,
		BTBHitRate:   0.9375,
	}
}

// checkGolden compares got with the named golden file, rewriting it
// under -update-golden. The goldens lock the canonical byte encoding:
// if this test fails, the wire schema drifted, which invalidates every
// shared cache and mixed-version worker fleet — make sure that is what
// you intend, regenerate, and call the change out in review.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden once): %v", err)
	}
	want = bytes.TrimSuffix(want, []byte("\n"))
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

func TestSpecGoldenRoundTrip(t *testing.T) {
	s := goldenSpec()
	enc := s.Encode()
	checkGolden(t, "spec.golden.json", enc)

	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, s) {
		t.Fatalf("spec round-trip mismatch:\n got: %+v\nwant: %+v", dec, s)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoding a decoded spec changed the bytes")
	}
}

func TestResultGoldenRoundTrip(t *testing.T) {
	r := goldenResult()
	enc := r.Encode()
	checkGolden(t, "result.golden.json", enc)

	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, r) {
		t.Fatalf("result round-trip mismatch:\n got: %+v\nwant: %+v", dec, r)
	}
}

// TestEncodeDeterministic: equal specs encode to identical bytes — the
// property the cache keys and the cross-process write-through both
// stand on.
func TestEncodeDeterministic(t *testing.T) {
	a, b := goldenSpec(), goldenSpec()
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("equal specs encoded differently")
	}
	if a.Key() != b.Key() {
		t.Fatal("equal specs keyed differently")
	}
}

// TestEncodeIgnoresInterfaceValues: a populated Codec/Scrambler value
// must not leak into the canonical bytes — identity travels by name.
func TestEncodeIgnoresInterfaceValues(t *testing.T) {
	a := goldenSpec()
	b := goldenSpec()
	b.Opts.Codec = core.RotXORCodec{}
	b.Opts.Scrambler = core.FeistelScrambler{}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("interface values leaked into the canonical encoding")
	}
}

// TestKeyPinned: the golden specs' keys, as hex computed before keys
// were derived from a saved schema prefix. A change here re-keys every
// run cache; TestSpecGoldenRoundTrip and TestAttackSpecGoldenRoundTrip
// tell an encoding change from a hashing one.
func TestKeyPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"performance", goldenSpec(), "2ce05fb02bc8f8269b9a5ef3f74da127b7d45c820ec488929375a7ca044ba5fa"},
		{"attack", goldenAttackSpec(), "5e662d6688aab8d1e8c47d48b255b1d81723f773c67be7153c03b02196e92b02"},
	} {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s golden spec keys to %s, want %s", c.name, got, c.want)
		}
	}
}

// TestKeySensitivity: changing any load-bearing field changes the key.
func TestKeySensitivity(t *testing.T) {
	base := goldenSpec().Key()
	mutations := map[string]func(*Spec){
		"mechanism": func(s *Spec) { s.Opts.Mechanism = core.XOR },
		"codec":     func(s *Spec) { s.Codec = "rotxor" },
		"scrambler": func(s *Spec) { s.Scrambler = "feistel" },
		"pred":      func(s *Spec) { s.Pred = "gshare" },
		"timer":     func(s *Spec) { s.Timer++ },
		"threads":   func(s *Spec) { s.Threads = []string{"mcf"} },
		"seed":      func(s *Spec) { s.Scale.Seed++ },
		"cfg":       func(s *Spec) { s.Cfg.FetchWidth++ },
	}
	for name, mutate := range mutations {
		s := goldenSpec()
		mutate(&s)
		if s.Key() == base {
			t.Errorf("mutation %q did not change the key", name)
		}
	}
}

// TestDecodeRejectsUnknownFields: a spec from a different schema
// generation fails loudly instead of being silently reinterpreted.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"opts":{},"surprise":1}`)); err == nil {
		t.Fatal("unknown spec field accepted")
	}
	if _, err := DecodeResult([]byte(`{"cycles":1,"surprise":1}`)); err == nil {
		t.Fatal("unknown result field accepted")
	}
}

// TestSchemaVersionTracksTypes: the version string embeds the wire type
// structure, so it mentions the load-bearing types and is stable across
// calls.
func TestSchemaVersionTracksTypes(t *testing.T) {
	v := SchemaVersion()
	if v != SchemaVersion() {
		t.Fatal("SchemaVersion is not deterministic")
	}
	for _, want := range []string{"wire.Spec", "wire.Result", "core.Options",
		"cpu.Config", "wire.Scale", "cpu.ThreadStats", "Mechanism"} {
		if !strings.Contains(v, want) {
			t.Errorf("schema version missing %q:\n%s", want, v)
		}
	}
}

// goldenAttackSpec exercises every field of the attack job kind.
func goldenAttackSpec() Spec {
	return Spec{
		Kind: KindAttack,
		Opts: core.Options{
			Mechanism:         core.XOR,
			Scope:             core.StructPHT,
			EnhancedPHT:       true,
			RotateOnPrivilege: true,
			FlushOnPrivilege:  true,
		},
		Codec:     "xor",
		Scrambler: "xor",
		Pred:      "perceptron",
		Attack: &AttackSpec{
			Name:        "pht_training",
			Scenario:    "SMT",
			RekeyPeriod: 16,
			Trials:      10_000,
			Attempts:    100,
			Seed:        7,
		},
	}
}

// goldenAttackResult exercises the attack-kind result payload.
func goldenAttackResult() Result {
	return Result{Attack: &AttackResult{Successes: 9_654, Trials: 10_000}}
}

func TestAttackSpecGoldenRoundTrip(t *testing.T) {
	s := goldenAttackSpec()
	enc := s.Encode()
	checkGolden(t, "attack_spec.golden.json", enc)

	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, s) {
		t.Fatalf("attack spec round-trip mismatch:\n got: %+v\nwant: %+v", dec, s)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoding a decoded attack spec changed the bytes")
	}
}

func TestAttackResultGoldenRoundTrip(t *testing.T) {
	r := goldenAttackResult()
	enc := r.Encode()
	checkGolden(t, "attack_result.golden.json", enc)

	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, r) {
		t.Fatalf("attack result round-trip mismatch:\n got: %+v\nwant: %+v", dec, r)
	}
	if got, want := dec.Attack.Rate(), 0.9654; got != want {
		t.Fatalf("decoded attack rate = %v, want %v", got, want)
	}
}

// TestPerfSpecOmitsAttackFields: the attack-kind fields must not leak
// into the canonical bytes of performance runs — their keys (and any
// warm cache built from them) would otherwise change for nothing.
func TestPerfSpecOmitsAttackFields(t *testing.T) {
	enc := string(goldenSpec().Encode())
	for _, banned := range []string{`"kind"`, `"attack"`} {
		if strings.Contains(enc, banned) {
			t.Errorf("performance spec encoding contains %s: %s", banned, enc)
		}
	}
}

// TestAttackKeySensitivity: every attack-payload field is load-bearing
// for the cache key.
func TestAttackKeySensitivity(t *testing.T) {
	base := goldenAttackSpec().Key()
	if base == goldenSpec().Key() {
		t.Fatal("attack and performance specs share a key")
	}
	mutations := map[string]func(*Spec){
		"name":     func(s *Spec) { s.Attack.Name = "btb_training" },
		"scenario": func(s *Spec) { s.Attack.Scenario = "single" },
		"rekey":    func(s *Spec) { s.Attack.RekeyPeriod++ },
		"trials":   func(s *Spec) { s.Attack.Trials++ },
		"attempts": func(s *Spec) { s.Attack.Attempts++ },
		"seed":     func(s *Spec) { s.Attack.Seed++ },
		"pred":     func(s *Spec) { s.Pred = "" },
		"mech":     func(s *Spec) { s.Opts.Mechanism = core.NoisyXOR },
	}
	for name, mutate := range mutations {
		s := goldenAttackSpec()
		mutate(&s)
		if s.Key() == base {
			t.Errorf("attack mutation %q did not change the key", name)
		}
	}
}

// TestSchemaEpoch3: the union schema is a new epoch — epoch-2 caches
// are superseded, not aliased.
func TestSchemaEpoch3(t *testing.T) {
	if !strings.Contains(SchemaVersion(), "/epoch3/") {
		t.Fatalf("schema version %q is not epoch 3", SchemaVersion())
	}
	for _, want := range []string{"wire.AttackSpec", "wire.AttackResult"} {
		if !strings.Contains(SchemaVersion(), want) {
			t.Errorf("schema version missing %q", want)
		}
	}
}

// checkEncodeMatchesJSON requires Encode to write exactly what
// encoding/json's Marshal, the definition of the canonical form, writes
// for s.
func checkEncodeMatchesJSON(t *testing.T, what string, s Spec) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", what, err)
	}
	if got := s.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from json.Marshal:\n got: %s\nwant: %s", what, got, want)
	}
}

// specLeaf is one scalar reachable from Spec: its path, and a function
// that walks a Spec value to it, allocating pointers and slices on the
// way.
type specLeaf struct {
	path string
	at   func(reflect.Value) reflect.Value
}

// specLeaves lists every leaf of type t that encoding/json writes,
// reached from a value by at: struct fields recurse (fields tagged
// json:"-" and unexported ones are skipped, as encoding/json skips
// them), a pointer is allocated, a slice is given two elements and its
// second is the leaf (so the separator is written), and every array
// element is a leaf of its own.
func specLeaves(t *testing.T, typ reflect.Type, path string, at func(reflect.Value) reflect.Value) []specLeaf {
	switch typ.Kind() {
	case reflect.Struct:
		var out []specLeaf
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			out = append(out, specLeaves(t, f.Type, path+"."+f.Name,
				func(v reflect.Value) reflect.Value { return at(v).Field(i) })...)
		}
		return out
	case reflect.Pointer:
		return specLeaves(t, typ.Elem(), path, func(v reflect.Value) reflect.Value {
			p := at(v)
			if p.IsNil() {
				p.Set(reflect.New(typ.Elem()))
			}
			return p.Elem()
		})
	case reflect.Slice:
		return specLeaves(t, typ.Elem(), path+"[1]", func(v reflect.Value) reflect.Value {
			s := at(v)
			if s.Len() < 2 {
				s.Set(reflect.AppendSlice(s, reflect.MakeSlice(typ, 2-s.Len(), 2-s.Len())))
			}
			return s.Index(1)
		})
	case reflect.Array:
		var out []specLeaf
		for i := 0; i < typ.Len(); i++ {
			out = append(out, specLeaves(t, typ.Elem(), fmt.Sprintf("%s[%d]", path, i),
				func(v reflect.Value) reflect.Value { return at(v).Index(i) })...)
		}
		return out
	case reflect.String, reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return []specLeaf{{path, at}}
	}
	t.Fatalf("%s: a %s reaches the wire; teach specLeaves and appendSpec to write it", path, typ)
	return nil
}

// setDistinct gives a leaf a non-zero value derived from n, distinct
// for distinct n: numbers at the top of their type's range, so each
// width's extreme is written too.
func setDistinct(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("leaf-%d", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := v.Type().Bits()
		v.SetInt(-1<<(bits-1) + int64(n)) // near the minimum: a sign and every digit
	default:
		v.SetUint(^uint64(0)>>(64-v.Type().Bits()) - uint64(n))
	}
}

// TestSpecEncodeMatchesJSON holds Encode to json.Marshal byte for byte.
// It walks Spec's type — into core.Options, cpu.Config, btb.Config,
// Scale and *AttackSpec, through slices and arrays — and sets each leaf
// in turn to a distinct non-zero value, on a zero spec (where Kind and
// Attack are omitted) and on a fully populated one. A field added
// without a step in appendSpec fails here, because json.Marshal writes
// it. The fixed cases cover nil and empty Threads, a nil Attack and
// strings that encoding/json escapes.
func TestSpecEncodeMatchesJSON(t *testing.T) {
	leaves := specLeaves(t, reflect.TypeOf(Spec{}), "Spec", func(v reflect.Value) reflect.Value { return v })
	if len(leaves) < 30 {
		t.Fatalf("walked %d leaves; Spec has more than 30", len(leaves))
	}
	full := Spec{}
	for i, l := range leaves {
		setDistinct(l.at(reflect.ValueOf(&full).Elem()), i+1)
	}
	checkEncodeMatchesJSON(t, "zero spec", Spec{})
	checkEncodeMatchesJSON(t, "every leaf set", full)
	for i, l := range leaves {
		var s Spec
		setDistinct(l.at(reflect.ValueOf(&s).Elem()), i+1)
		checkEncodeMatchesJSON(t, l.path+" set on a zero spec", s)

		s = full
		s.Threads = append([]string(nil), full.Threads...)
		a := *full.Attack
		s.Attack = &a
		setDistinct(l.at(reflect.ValueOf(&s).Elem()), len(leaves)+i+1)
		checkEncodeMatchesJSON(t, l.path+" changed on a full spec", s)
	}

	cases := map[string]func(*Spec){
		"nil threads":   func(s *Spec) { s.Threads = nil },
		"empty threads": func(s *Spec) { s.Threads = []string{} },
		"one thread":    func(s *Spec) { s.Threads = []string{"gcc"} },
		"nil attack":    func(s *Spec) { s.Attack = nil },
		"html":          func(s *Spec) { s.Pred = "<a href='x'>&amp;</a>" },
		"quote":         func(s *Spec) { s.Codec = `say "xor"` },
		"backslash":     func(s *Spec) { s.Scrambler = `C:\xor` },
		"control bytes": func(s *Spec) { s.Cfg.Name = "tab\there\nnul\x00del\x7f" },
		"non-ASCII":     func(s *Spec) { s.Threads = []string{"gcc", "gémeaux", "日本", "\u2028\u2029"} },
		"invalid UTF-8": func(s *Spec) { s.Scale.TimerLabels[1] = "4M\xff\xfe" },
		"attack names":  func(s *Spec) { s.Attack = &AttackSpec{Name: "pht<training>", Scenario: "S&MT"} },
	}
	for name, mutate := range cases {
		for base, spec := range map[string]func() Spec{"performance": goldenSpec, "attack": goldenAttackSpec} {
			s := spec()
			mutate(&s)
			checkEncodeMatchesJSON(t, base+" spec, "+name, s)
		}
	}
}
