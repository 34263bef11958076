package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// PlanFormat versions the FaultPlan file format. Bump it when a field
// changes meaning; DecodePlan refuses other versions outright rather
// than guessing.
const PlanFormat = "xorbp-chaos/1"

// Rule schedules one fault kind: after the first After decision points
// pass, each further decision point fires with probability Rate on the
// rule's own seeded stream, up to Count injections (0 = unbounded).
// Rate 1 with Count 1 and After N is the idiom for "exactly once, at
// the N+1th opportunity".
type Rule struct {
	// Fault names the kind (FaultNames vocabulary).
	Fault string `json:"fault"`
	// Rate is the per-decision-point injection probability in [0, 1].
	Rate float64 `json:"rate"`
	// After skips the first After decision points entirely.
	After int `json:"after,omitempty"`
	// Count caps total injections by this rule; 0 means unbounded.
	Count int `json:"count,omitempty"`
}

// FaultPlan is the complete, replayable description of a chaos run:
// a seed and one rule per fault kind. Two processes given the same
// plan make identical injection decisions at identical decision
// points — that is what makes a CI chaos failure reproducible locally.
type FaultPlan struct {
	// Plan is the format tag; Encode stamps it, DecodePlan enforces it.
	Plan string `json:"plan"`
	// Seed roots every rule's decision stream.
	Seed uint64 `json:"seed"`
	// Rules schedule the faults. At most one rule per fault kind.
	Rules []Rule `json:"rules"`
}

// Validate checks the plan's vocabulary and ranges: every rule must
// name a registered fault exactly once, with a probability.
func (p FaultPlan) Validate() error {
	if p.Plan != "" && p.Plan != PlanFormat {
		return fmt.Errorf("chaos: plan format %q, this build reads %q", p.Plan, PlanFormat)
	}
	seen := make(map[string]bool, len(p.Rules))
	for i, r := range p.Rules {
		if _, ok := FaultByName(r.Fault); !ok {
			return fmt.Errorf("chaos: rule %d: unknown fault %q", i, r.Fault)
		}
		if seen[r.Fault] {
			return fmt.Errorf("chaos: rule %d: duplicate rule for fault %q", i, r.Fault)
		}
		seen[r.Fault] = true
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("chaos: rule %d (%s): rate %v outside [0, 1]", i, r.Fault, r.Rate)
		}
		if r.After < 0 || r.Count < 0 {
			return fmt.Errorf("chaos: rule %d (%s): negative after/count", i, r.Fault)
		}
	}
	return nil
}

// Encode renders the plan's canonical single-line JSON form, format
// tag stamped. Deterministic: same plan, same bytes.
func (p FaultPlan) Encode() []byte {
	p.Plan = PlanFormat
	out, err := json.Marshal(p)
	if err != nil {
		// Every field is a scalar, string or slice thereof; Marshal
		// cannot fail on them.
		panic("chaos: encoding plan: " + err.Error())
	}
	return out
}

// DecodePlan strictly parses and validates an encoded plan: unknown
// fields, unknown fault names and out-of-range rates are all errors —
// a typo in a chaos plan must fail the run, not silently disable the
// fault it meant to schedule.
func DecodePlan(raw []byte) (FaultPlan, error) {
	var p FaultPlan
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return FaultPlan{}, fmt.Errorf("chaos: decoding plan: %w", err)
	}
	if p.Plan == "" {
		return FaultPlan{}, fmt.Errorf("chaos: plan is missing its %q format tag", PlanFormat)
	}
	if err := p.Validate(); err != nil {
		return FaultPlan{}, err
	}
	return p, nil
}

// LoadPlan reads and decodes a plan file (chaosbench -plan).
func LoadPlan(path string) (FaultPlan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return FaultPlan{}, fmt.Errorf("chaos: %w", err)
	}
	p, err := DecodePlan(raw)
	if err != nil {
		return FaultPlan{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
