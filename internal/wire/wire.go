// Package wire defines the versioned wire schema of the experiment
// engine: the canonical, exported JSON forms of a simulation spec and
// its result. It is the contract shared by every execution backend —
// the in-process pool, the pull fleet's queue protocol, and the
// persistent run cache, whose keys are derived from the canonical spec
// encoding. One schema everywhere means a result computed by any
// process (local worker, pull worker, earlier invocation) is
// interchangeable with every other.
//
// The encoding is deterministic by construction: fixed struct field
// order, no maps, interface-valued options carried by their registered
// names. Golden tests (testdata/) lock the byte-level form, so schema
// drift fails loudly instead of silently aliasing or orphaning cache
// entries.
//
// encoding/json defines the form, but the two hot paths do not reflect:
// Spec.Encode (and so Spec.Key) writes the canonical bytes directly, and
// DecodeResult scans them. Tests hold each to encoding/json as an
// oracle — TestSpecEncodeMatchesJSON and FuzzEncodeSpec compare the
// encoder with json.Marshal over every field reachable from Spec,
// FuzzDecodeResult the decoder with json.Decoder — so a field added to
// either type without a matching step fails tier-1 tests instead of
// aliasing cache keys or decoding wrongly.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/runcache"
)

// Scale sets simulation sizes. The paper runs billions of instructions
// on real SPEC; the harness scales budgets and timer periods together so
// the ratios that drive every result (warm-up cost per isolation event
// vs cycles between events) are preserved. See EXPERIMENTS.md.
type Scale struct {
	// WarmupInstr and MeasureInstr are per-run instruction budgets for
	// single-core runs.
	WarmupInstr  uint64 `json:"warmup_instr"`
	MeasureInstr uint64 `json:"measure_instr"`
	// SMTWarmupInstr and SMTMeasureInstr are the (larger) budgets for SMT
	// runs: isolation events arrive per Mcycle, and an SMT window must
	// contain enough of them for a stable flush-cost estimate.
	SMTWarmupInstr  uint64 `json:"smt_warmup_instr"`
	SMTMeasureInstr uint64 `json:"smt_measure_instr"`
	// TimerPeriods are the scaled flush/switch periods standing in for
	// the paper's 4M/8M/12M cycles (labels keep the paper's names).
	TimerPeriods [3]uint64 `json:"timer_periods"`
	// TimerLabels are the paper's names for the three periods.
	TimerLabels [3]string `json:"timer_labels"`
	// Seed diversifies the whole experiment deterministically.
	Seed uint64 `json:"seed"`
}

// KindAttack marks a Spec as an attack job. The zero Kind ("") is a
// performance run — the schema's original, and still most common, kind.
const KindAttack = "attack"

// Spec is the canonical wire form of one simulation: everything a
// worker needs to reproduce the run bit-for-bit. The Codec and
// Scrambler interfaces of core.Options are carried by their registered
// names (core.CodecByName / core.ScramblerByName), never by value.
//
// A Spec is one of two kinds. A performance run (Kind "") measures a
// workload's execution under a mechanism: Cfg, Timer, Threads and Scale
// are live, Attack is nil. An attack job (Kind "attack") measures a
// PoC's success against a mechanism: Attack is live, and the
// microarchitecture fields are zero (the attack harness drives the
// predictor structures directly). Both kinds share Opts, Codec,
// Scrambler and Pred — the mechanism and predictor under test.
//
// appendSpec writes these fields, and those of the types they hold, in
// declaration order: a field added here or there needs a step in it.
type Spec struct {
	// Kind discriminates the run kinds: "" (performance) or KindAttack.
	Kind string `json:"kind,omitempty"`
	// Opts is the mechanism configuration with the interface fields
	// excluded from the encoding (their identities are Codec/Scrambler
	// below).
	Opts core.Options `json:"opts"`
	// Codec and Scrambler are the Name() values of the normalized
	// options' interface fields.
	Codec     string `json:"codec"`
	Scrambler string `json:"scrambler"`
	// Pred names the direction predictor (experiment.NewDirPredictor).
	// For attack jobs, "" selects the PoC's default bimodal table.
	Pred string `json:"pred"`
	// Cfg is the core microarchitecture.
	Cfg cpu.Config `json:"cfg"`
	// Timer is the scheduler timer period in cycles.
	Timer uint64 `json:"timer"`
	// Threads are the software-thread workload names; the first is the
	// measurement target.
	Threads []string `json:"threads"`
	// Scale is the simulation size.
	Scale Scale `json:"scale"`
	// Attack is the attack-job payload (Kind == KindAttack only).
	Attack *AttackSpec `json:"attack,omitempty"`
}

// AttackSpec is the attack-specific half of an attack job: which
// registered PoC to run, on which core arrangement, and how big.
type AttackSpec struct {
	// Name is the registered attack (attack.ByName).
	Name string `json:"name"`
	// Scenario is the core arrangement by wire name: "single" or "SMT"
	// (attack.ScenarioByName).
	Scenario string `json:"scenario"`
	// RekeyPeriod is the isolation controller's timer period in
	// scheduling events; 0 is the paper's event-driven design (see
	// attack.Env).
	RekeyPeriod uint64 `json:"rekey_period"`
	// Trials sizes the measurement (iterations, secret bits — the
	// attack's outer loop).
	Trials int `json:"trials"`
	// Attempts sizes the inner loop of the attacks that have one
	// (pht_training, pht_steering); 0 otherwise.
	Attempts int `json:"attempts"`
	// Seed diversifies the measurement deterministically.
	Seed uint64 `json:"seed"`
}

// Result is one simulation's measurement window — the engine's
// RunResult, promoted to the wire schema. For attack jobs the
// performance fields are zero and Attack carries the counted outcome.
// DecodeResult reads these fields, and cpu.ThreadStats's, in
// declaration order: a field added here needs a step there.
type Result struct {
	Cycles       uint64            `json:"cycles"`
	Target       cpu.ThreadStats   `json:"target"`
	Others       []cpu.ThreadStats `json:"others"`
	PrivSwitches uint64            `json:"priv_switches"`
	CtxSwitches  uint64            `json:"ctx_switches"`
	BTBHitRate   float64           `json:"btb_hit_rate"`
	// Attack is the attack-job outcome (attack-kind specs only).
	Attack *AttackResult `json:"attack,omitempty"`
}

// AttackResult is an attack job's counted measurement. Counts (not a
// rate) travel on the wire so independent seed batches of one logical
// cell merge exactly by integer addition.
type AttackResult struct {
	Successes int `json:"successes"`
	Trials    int `json:"trials"`
}

// Rate returns Successes/Trials (0 when empty).
func (a AttackResult) Rate() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Trials)
}

// PrivPerMcycle returns privilege switches per million cycles.
func (r Result) PrivPerMcycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.PrivSwitches) / float64(r.Cycles) * 1e6
}

// CtxPerMcycle returns context switches per million cycles.
func (r Result) CtxPerMcycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.CtxSwitches) / float64(r.Cycles) * 1e6
}

// schemaEpoch distinguishes encoding generations that a type signature
// cannot: bump it when simulation semantics change in a way that makes
// previously stored results stale (e.g. a scheduler-model fix) without
// any key or result field changing shape.
//
// Epoch 2: spec/result promoted to this package's canonical snake_case
// wire form (PR 3); epoch-1 entries used the internal persistedKey
// encoding.
//
// Epoch 3: the schema became a union of run kinds — attack jobs joined
// performance runs (Spec.Kind/Attack, Result.Attack). The type-signature
// component changes too, but the epoch bump makes the supersession
// explicit: epoch-2 cache directories are stale and GC removes them.
const schemaEpoch = 3

// SchemaVersion identifies the wire encoding (and therefore the
// persistent run cache's encoding). It embeds a recursive signature of
// the Spec and Result types, so adding, removing, renaming or retyping
// any field reachable from them produces a new version — stale entries
// and mismatched peers are rejected, never aliased.
func SchemaVersion() string { return schemaVersion }

// schemaVersion is computed once; the types are static, so the
// signature cannot change within a process.
var schemaVersion = fmt.Sprintf("xorbp-run/epoch%d/%s->%s", schemaEpoch,
	typeSig(reflect.TypeOf(Spec{}), nil),
	typeSig(reflect.TypeOf(Result{}), nil))

// keyer holds the SHA-256 state after schemaVersion and its NUL, from
// which Spec.Key derives every key.
var keyer = runcache.NewKeyer(schemaVersion)

// typeSig renders a type's full structure: struct fields recurse, so a
// change anywhere in the spec or result type tree changes the signature.
func typeSig(t reflect.Type, seen map[reflect.Type]bool) string {
	if seen == nil {
		seen = make(map[reflect.Type]bool)
	}
	switch t.Kind() {
	case reflect.Struct:
		if seen[t] {
			return t.String()
		}
		seen[t] = true
		var b strings.Builder
		b.WriteString(t.String())
		b.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			if i > 0 {
				b.WriteByte(';')
			}
			f := t.Field(i)
			b.WriteString(f.Name)
			b.WriteByte(':')
			b.WriteString(typeSig(f.Type, seen))
		}
		b.WriteByte('}')
		return b.String()
	case reflect.Slice:
		return "[]" + typeSig(t.Elem(), seen)
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), typeSig(t.Elem(), seen))
	case reflect.Pointer:
		return "*" + typeSig(t.Elem(), seen)
	case reflect.Map:
		return "map[" + typeSig(t.Key(), seen) + "]" + typeSig(t.Elem(), seen)
	default:
		// Basic kinds and interfaces: the name is the identity (interface
		// implementations are keyed separately, by registered name).
		return t.String()
	}
}

// Encode renders the canonical byte form of the spec: single-line JSON
// with fixed field order, byte for byte what encoding/json's Marshal
// writes for the Spec. Two equal Specs always encode to identical
// bytes, so the encoding doubles as the cache-key payload.
// Encode writes the bytes directly (appendSpec) rather than reflecting;
// the package's tests hold it to json.Marshal.
func (s Spec) Encode() []byte {
	return s.appendSpec(make([]byte, 0, specBufSize))
}

// specBufSize holds a typical encoded spec (about 600 bytes) in one
// allocation; a longer one grows the buffer.
const specBufSize = 1024

// appendSpec appends the canonical encoding of s to b: the fixed key
// prefixes in declaration order, numbers as encoding/json formats them
// (strconv, base 10), strings through appendString. The interface
// fields of core.Options carry json:"-" and are never written, so a
// populated Options cannot leak implementation-dependent bytes into the
// canonical form; their identities are in Codec/Scrambler.
func (s Spec) appendSpec(b []byte) []byte {
	b = append(b, '{')
	if s.Kind != "" {
		b = append(b, `"kind":`...)
		b = appendString(b, s.Kind)
		b = append(b, ',')
	}
	o := &s.Opts
	b = append(b, `"opts":{"mechanism":`...)
	b = strconv.AppendInt(b, int64(o.Mechanism), 10)
	b = append(b, `,"scope":`...)
	b = strconv.AppendUint(b, uint64(o.Scope), 10)
	b = append(b, `,"enhanced_pht":`...)
	b = strconv.AppendBool(b, o.EnhancedPHT)
	b = append(b, `,"rotate_on_privilege":`...)
	b = strconv.AppendBool(b, o.RotateOnPrivilege)
	b = append(b, `,"flush_on_privilege":`...)
	b = strconv.AppendBool(b, o.FlushOnPrivilege)
	b = append(b, `,"rekey_period":`...)
	b = strconv.AppendUint(b, o.RekeyPeriod, 10)
	b = append(b, `},"codec":`...)
	b = appendString(b, s.Codec)
	b = append(b, `,"scrambler":`...)
	b = appendString(b, s.Scrambler)
	b = append(b, `,"pred":`...)
	b = appendString(b, s.Pred)
	c := &s.Cfg
	b = append(b, `,"cfg":{"name":`...)
	b = appendString(b, c.Name)
	b = append(b, `,"fetch_width":`...)
	b = strconv.AppendInt(b, int64(c.FetchWidth), 10)
	b = append(b, `,"mispredict_penalty":`...)
	b = strconv.AppendUint(b, c.MispredictPenalty, 10)
	b = append(b, `,"btb_miss_penalty":`...)
	b = strconv.AppendUint(b, c.BTBMissPenalty, 10)
	b = append(b, `,"btb":{"sets":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.Sets), 10)
	b = append(b, `,"ways":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.Ways), 10)
	b = append(b, `,"tag_bits":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.TagBits), 10)
	b = append(b, `,"target_bits":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.TargetBits), 10)
	b = append(b, `},"ras_depth":`...)
	b = strconv.AppendInt(b, int64(c.RASDepth), 10)
	b = append(b, `,"hw_threads":`...)
	b = strconv.AppendInt(b, int64(c.HWThreads), 10)
	b = append(b, `},"timer":`...)
	b = strconv.AppendUint(b, s.Timer, 10)
	b = append(b, `,"threads":`...)
	if s.Threads == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range s.Threads {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, t)
		}
		b = append(b, ']')
	}
	sc := &s.Scale
	b = append(b, `,"scale":{"warmup_instr":`...)
	b = strconv.AppendUint(b, sc.WarmupInstr, 10)
	b = append(b, `,"measure_instr":`...)
	b = strconv.AppendUint(b, sc.MeasureInstr, 10)
	b = append(b, `,"smt_warmup_instr":`...)
	b = strconv.AppendUint(b, sc.SMTWarmupInstr, 10)
	b = append(b, `,"smt_measure_instr":`...)
	b = strconv.AppendUint(b, sc.SMTMeasureInstr, 10)
	b = append(b, `,"timer_periods":[`...)
	for i, p := range sc.TimerPeriods {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, p, 10)
	}
	b = append(b, `],"timer_labels":[`...)
	for i, l := range sc.TimerLabels {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, l)
	}
	b = append(b, `],"seed":`...)
	b = strconv.AppendUint(b, sc.Seed, 10)
	b = append(b, '}')
	if a := s.Attack; a != nil {
		b = append(b, `,"attack":{"name":`...)
		b = appendString(b, a.Name)
		b = append(b, `,"scenario":`...)
		b = appendString(b, a.Scenario)
		b = append(b, `,"rekey_period":`...)
		b = strconv.AppendUint(b, a.RekeyPeriod, 10)
		b = append(b, `,"trials":`...)
		b = strconv.AppendInt(b, int64(a.Trials), 10)
		b = append(b, `,"attempts":`...)
		b = strconv.AppendInt(b, int64(a.Attempts), 10)
		b = append(b, `,"seed":`...)
		b = strconv.AppendUint(b, a.Seed, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendString appends str as a JSON string. A string of printable
// ASCII that encoding/json writes unescaped is copied between quotes;
// any other string — one holding a quote, a backslash, an HTML-escaped
// <, > or &, a control byte or a byte outside ASCII — is quoted by
// encoding/json itself, so every escape is encoding/json's by
// construction. Registered names and workload labels take the fast path.
func appendString(b []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(str)
			if err != nil {
				// A string always marshals (invalid UTF-8 becomes U+FFFD).
				panic(fmt.Sprintf("wire: encoding string: %v", err))
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
}

// DecodeSpec parses a canonical spec encoding. Unknown fields are
// rejected: a worker on a different schema must fail loudly, not guess.
func DecodeSpec(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("wire: decoding spec: %w", err)
	}
	return s, nil
}

// Key derives the spec's persistent-store key: the hex SHA-256 of the
// schema version, a NUL byte and the canonical encoding. Every process
// that agrees on the schema derives the same key for the same spec — the
// property that lets local runs, remote workers and warm caches
// interoperate. The schema prefix is hashed once per process (keyer);
// each call encodes the spec directly (Encode) into a buffer on the
// stack and hashes only those bytes.
func (s Spec) Key() string {
	var buf [specBufSize]byte
	return keyer.Key(s.appendSpec(buf[:0]))
}

// Encode renders the canonical byte form of the result.
func (r Result) Encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("wire: encoding result: %v", err))
	}
	return b
}

// DecodeResult parses a result in the canonical form Encode writes —
// compact JSON, every key in declaration order, "attack" present only
// when non-nil — and rejects anything else, including whitespace,
// reordered or case-folded keys, "attack":null and trailing bytes.
// Every stored result is Encode's output (the run cache's compaction
// leaves it unchanged), so a rejected value is a damaged or foreign one,
// and callers treat it as a miss and simulate again.
//
// The decoder matches literal key prefixes and scans each number as one
// JSON number token, converted with the strconv call encoding/json uses
// for the field's type. So any input it accepts decodes to the Result
// encoding/json would give; FuzzDecodeResult checks that against
// encoding/json. A field added to Result without a matching step here
// makes every canonical encoding fail to decode, never decode wrongly.
func DecodeResult(b []byte) (Result, error) {
	d := resultDecoder{b: b}
	var r Result
	d.lit(`{"cycles":`)
	r.Cycles = d.uintVal()
	d.lit(`,"target":`)
	r.Target = d.threadStats()
	d.lit(`,"others":`)
	r.Others = d.others()
	d.lit(`,"priv_switches":`)
	r.PrivSwitches = d.uintVal()
	d.lit(`,"ctx_switches":`)
	r.CtxSwitches = d.uintVal()
	d.lit(`,"btb_hit_rate":`)
	r.BTBHitRate = d.floatVal()
	if d.consume(`,"attack":{"successes":`) {
		a := &AttackResult{Successes: d.intVal()}
		d.lit(`,"trials":`)
		a.Trials = d.intVal()
		d.lit(`}`)
		r.Attack = a
	}
	d.lit(`}`)
	if d.err == nil && d.i != len(b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return Result{}, fmt.Errorf("wire: decoding result: %w", d.err)
	}
	return r, nil
}

// resultDecoder scans DecodeResult's input left to right. The first
// mismatch sets err; every later step is then a no-op.
type resultDecoder struct {
	b   []byte
	i   int
	err error
}

func (d *resultDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", what, d.i)
	}
}

// consume advances past s if the input continues with it.
func (d *resultDecoder) consume(s string) bool {
	if d.err != nil || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit requires the input to continue with s.
func (d *resultDecoder) lit(s string) {
	if !d.consume(s) {
		d.fail(fmt.Sprintf("want %q", s))
	}
}

// threadStats reads one canonical cpu.ThreadStats object.
func (d *resultDecoder) threadStats() cpu.ThreadStats {
	var s cpu.ThreadStats
	d.lit(`{"instructions":`)
	s.Instructions = d.uintVal()
	d.lit(`,"branches":`)
	s.Branches = d.uintVal()
	d.lit(`,"cond_branches":`)
	s.CondBranches = d.uintVal()
	d.lit(`,"dir_misp":`)
	s.DirMisp = d.uintVal()
	d.lit(`,"eff_misp":`)
	s.EffMisp = d.uintVal()
	d.lit(`,"targ_misp":`)
	s.TargMisp = d.uintVal()
	d.lit(`,"decode_redir":`)
	s.DecodeRedir = d.uintVal()
	d.lit(`,"syscalls":`)
	s.Syscalls = d.uintVal()
	d.lit(`}`)
	return s
}

// others reads null (a nil slice) or an array of ThreadStats; [] is an
// empty non-nil slice, as encoding/json decodes it.
func (d *resultDecoder) others() []cpu.ThreadStats {
	if d.consume("null") {
		return nil
	}
	d.lit("[")
	out := []cpu.ThreadStats{}
	if d.consume("]") {
		return out
	}
	for d.err == nil {
		out = append(out, d.threadStats())
		if d.consume("]") {
			return out
		}
		d.lit(",")
	}
	return nil
}

// number scans one JSON number token,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (d *resultDecoder) number() []byte {
	if d.err != nil {
		return nil
	}
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		d.fail("want a number")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			d.fail("want a fraction digit")
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			d.fail("want an exponent digit")
			return nil
		}
		i = j
	}
	tok := b[d.i:i]
	d.i = i
	return tok
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// uintVal reads a uint64 field as encoding/json does: ParseUint rejects
// a sign, a fraction, an exponent and overflow.
func (d *resultDecoder) uintVal() uint64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		d.fail("want an unsigned integer")
	}
	return n
}

// intVal reads an int field as encoding/json does.
func (d *resultDecoder) intVal() int {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.fail("want an integer")
	}
	return int(n)
}

// floatVal reads a float64 field as encoding/json does; an overflow to
// ±Inf is an error.
func (d *resultDecoder) floatVal() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("want a finite number")
	}
	return f
}

// Health is the body of GET /healthz on the pull leader.
type Health struct {
	// Status is "ok".
	Status string `json:"status"`
	// Schema is the leader's SchemaVersion.
	Schema string `json:"schema"`
	// Inflight counts specs leased to workers right now; Runs counts
	// specs resolved so far.
	Inflight int    `json:"inflight"`
	Runs     uint64 `json:"runs"`
}

// Error is the JSON error body the pull leader returns for non-2xx
// statuses.
type Error struct {
	Error string `json:"error"`
}
