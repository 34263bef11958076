package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPlanCodecRoundTrip: Encode stamps the format tag and DecodePlan
// reads its own output back unchanged.
func TestPlanCodecRoundTrip(t *testing.T) {
	p := FaultPlan{
		Seed: 42,
		Rules: []Rule{
			{Fault: "heartbeatloss", Rate: 0.25},
			{Fault: "bitflip", Rate: 1, After: 3, Count: 1},
		},
	}
	raw := p.Encode()
	got, err := DecodePlan(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan != PlanFormat {
		t.Fatalf("decoded format %q, want %q", got.Plan, PlanFormat)
	}
	if got.Seed != p.Seed || len(got.Rules) != len(p.Rules) {
		t.Fatalf("round trip lost fields: %+q", raw)
	}
	if !bytes.Equal(got.Encode(), raw) {
		t.Fatal("re-encoding a decoded plan changed its bytes")
	}
}

// TestDecodePlanStrict: typos must fail the run, not silently disable a
// fault — unknown fields, unknown fault names, missing format tag, and
// out-of-range rates are all errors.
func TestDecodePlanStrict(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"unknown field", `{"plan":"xorbp-chaos/1","seed":1,"rules":[{"fault":"heartbeatloss","rtae":0.5}]}`, "unknown field"},
		{"unknown fault", `{"plan":"xorbp-chaos/1","seed":1,"rules":[{"fault":"bitflp","rate":0.5}]}`, `unknown fault "bitflp"`},
		{"missing tag", `{"seed":1,"rules":[]}`, "format tag"},
		{"foreign format", `{"plan":"xorbp-chaos/9","seed":1,"rules":[]}`, `format "xorbp-chaos/9"`},
		{"rate range", `{"plan":"xorbp-chaos/1","seed":1,"rules":[{"fault":"heartbeatloss","rate":1.5}]}`, "outside [0, 1]"},
		{"duplicate rule", `{"plan":"xorbp-chaos/1","seed":1,"rules":[{"fault":"dupcomplete","rate":1},{"fault":"dupcomplete","rate":0}]}`, "duplicate rule"},
		{"negative after", `{"plan":"xorbp-chaos/1","seed":1,"rules":[{"fault":"dupcomplete","rate":1,"after":-2}]}`, "negative"},
	}
	for _, tc := range cases {
		_, err := DecodePlan([]byte(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadPlan: the chaosbench -plan path, including a clear error for
// a missing file.
func TestLoadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, FaultPlan{Seed: 9}.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil || p.Seed != 9 {
		t.Fatalf("LoadPlan = %+v, %v", p, err)
	}
	if _, err := LoadPlan(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing plan file succeeded")
	}
}

// TestFaultRegistryRoundTrip: every name in FaultNames resolves through
// FaultByName back to itself with a known seam. (bpvet's exhaustive
// analyzer enforces the same statically; this keeps it honest at run
// time too.)
func TestFaultRegistryRoundTrip(t *testing.T) {
	seams := map[string]bool{SeamCacheFile: true, SeamFleet: true}
	for _, name := range FaultNames() {
		f, ok := FaultByName(name)
		if !ok {
			t.Fatalf("FaultNames lists %q but FaultByName cannot resolve it", name)
		}
		if f.Name() != name {
			t.Fatalf("FaultByName(%q).Name() = %q", name, f.Name())
		}
		if !seams[f.Seam()] {
			t.Fatalf("fault %q claims unknown seam %q", name, f.Seam())
		}
	}
	if _, ok := FaultByName("no-such-fault"); ok {
		t.Fatal("FaultByName resolved a name outside the registry")
	}
}

// TestInjectorDeterminism: two injectors over the same plan make the
// same decision sequence; a different seed makes a different one.
func TestInjectorDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 7, Rules: []Rule{{Fault: "heartbeatloss", Rate: 0.5}}}
	decisions := func(p FaultPlan) []bool {
		in, err := NewInjector(p)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Hit(HeartbeatLoss{})
		}
		return out
	}
	a, b := decisions(plan), decisions(plan)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical plans", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate-0.5 rule fired %d/%d times; stream looks degenerate", fired, len(a))
	}
	other := decisions(FaultPlan{Seed: 8, Rules: plan.Rules})
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical decision sequences")
	}
}

// TestInjectorRateAfterCount: After skips exactly that many decision
// points, Count caps total injections, Rate 1 fires at every eligible
// point, and an unruled fault never fires.
func TestInjectorRateAfterCount(t *testing.T) {
	in, err := NewInjector(FaultPlan{Seed: 1, Rules: []Rule{
		{Fault: "dupcomplete", Rate: 1, After: 3, Count: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, in.Hit(DupComplete{}))
	}
	want := []bool{false, false, false, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decisions = %v, want %v", got, want)
		}
	}
	if in.Hit(HeartbeatLoss{}) {
		t.Fatal("a fault without a rule fired")
	}
	counts := in.Counts()
	if counts["fleet/dupcomplete"] != 2 || len(counts) != 1 {
		t.Fatalf("Counts = %v, want fleet/dupcomplete=2 only", counts)
	}
	lines := in.CountLines()
	if len(lines) != 1 || lines[0] != "fleet/dupcomplete=2" {
		t.Fatalf("CountLines = %v", lines)
	}
}

// TestInjectorNilSafe: a nil injector is "chaos disabled" — never
// fires, never panics.
func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	if in.Hit(HeartbeatLoss{}) || in.Draw(BitFlip{}) != 0 || in.Counts() != nil {
		t.Fatal("nil injector injected something")
	}
}

// TestCacheFaults: the write-path hook applies exactly one fault —
// ENOSPC errors the write, Truncate halves it, BitFlip flips a single
// bit in a copy — and passes bytes through untouched otherwise.
func TestCacheFaults(t *testing.T) {
	raw := bytes.Repeat([]byte{0xA5}, 64)
	newCF := func(rules ...Rule) *CacheFaults {
		in, err := NewInjector(FaultPlan{Seed: 11, Rules: rules})
		if err != nil {
			t.Fatal(err)
		}
		return NewCacheFaults(in)
	}

	if _, err := newCF(Rule{Fault: "enospc", Rate: 1, Count: 1}).WriteEntry("k", raw); err == nil {
		t.Fatal("enospc rule did not fail the write")
	}

	out, err := newCF(Rule{Fault: "truncate", Rate: 1, Count: 1}).WriteEntry("k", raw)
	if err != nil || len(out) != len(raw)/2 {
		t.Fatalf("truncate: len %d, err %v; want %d, nil", len(out), err, len(raw)/2)
	}

	out, err = newCF(Rule{Fault: "bitflip", Rate: 1, Count: 1}).WriteEntry("k", raw)
	if err != nil || len(out) != len(raw) {
		t.Fatalf("bitflip: len %d, err %v", len(out), err)
	}
	diff := 0
	for i := range raw {
		for b := 0; b < 8; b++ {
			if (raw[i]^out[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("bitflip changed %d bits, want exactly 1", diff)
	}
	if raw[0] != 0xA5 {
		t.Fatal("bitflip aliased the caller's buffer")
	}

	out, err = newCF().WriteEntry("k", raw)
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatal("empty plan perturbed a write")
	}
}
