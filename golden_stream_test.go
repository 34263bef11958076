package xorbp

// Golden predictor-stream oracle: a fixed gcc branch stream replayed
// straight through every direction predictor under every isolation
// configuration, with the prediction bits and the final snapshot bytes
// pinned to committed hashes. Unlike the engine and fork suites, which
// prove that two execution paths agree, this pins the values: a kernel
// rewrite that shifts every path the same way fails here. It also covers
// the codec paths the benchmark digests never reach (XOR without the
// Enhanced word schedule, the rotate-XOR codec with the Feistel
// scrambler) and the access orders that stress carried state: unpaired
// Predicts, and key rotations between a Predict and its Update.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/experiment"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/workload"
)

const (
	goldenEvents    = 200_000 // gcc events generated (conditional ones replay)
	goldenSeed      = 7
	goldenEventStep = 997 // branches between injected isolation events
)

// goldenOptions are the isolation configurations the oracle covers.
func goldenOptions() []namedOptions {
	plainXOR := core.OptionsFor(core.XOR)
	plainXOR.EnhancedPHT = false
	return []namedOptions{
		{"baseline", core.OptionsFor(core.Baseline)},
		{"complete-flush", core.OptionsFor(core.CompleteFlush)},
		{"precise-flush", core.OptionsFor(core.PreciseFlush)},
		{"xor", core.OptionsFor(core.XOR)},
		{"noisy-xor", core.OptionsFor(core.NoisyXOR)},
		{"xor-plain-pht", plainXOR},
		{"noisy-rotxor-feistel", rotXORFeistel()},
	}
}

// goldenStream is the conditional-branch subsequence of the fixed gcc
// stream.
func goldenStream() (pcs []uint64, takens []bool) {
	gen := workload.NewGenerator(workload.MustByName("gcc"), goldenSeed)
	evs := make([]workload.BranchEvent, 4096)
	for done := 0; done < goldenEvents; {
		n := gen.NextBatch(evs)
		if n > goldenEvents-done {
			n = goldenEvents - done
		}
		for _, ev := range evs[:n] {
			if ev.Class == predictor.CondDirect {
				pcs = append(pcs, ev.PC)
				takens = append(takens, ev.Taken)
			}
		}
		done += n
	}
	return pcs, takens
}

// replayGolden drives one predictor through the stream and returns the
// hash of its prediction bits and of its final snapshot bytes. Branches
// alternate between two hardware threads in blocks of 24; every
// goldenEventStep branches an isolation event fires, cycling through:
// a context switch between a Predict and its Update, a privilege change
// (user <-> kernel) between branches, and an unpaired Predict on another
// PC before the branch's own Predict.
func replayGolden(name string, opts core.Options, pcs []uint64, takens []bool) (preds, state string) {
	ctrl := core.NewController(opts, 11)
	dir := experiment.NewDirPredictor(name, ctrl)
	priv := [2]core.Privilege{core.User, core.User}
	bits := make([]byte, (len(pcs)+7)/8)
	for i, pc := range pcs {
		th := core.HWThread((i / 24) & 1)
		ev := -1
		if i%goldenEventStep == goldenEventStep-1 {
			ev = (i / goldenEventStep) % 3
		}
		if ev == 1 {
			to := core.Kernel
			if priv[th] == core.Kernel {
				to = core.User
			}
			ctrl.PrivilegeChange(th, to)
			priv[th] = to
		}
		d := core.Domain{Thread: th, Priv: priv[th]}
		if ev == 2 {
			dir.Predict(d, pc^0x5a40)
		}
		p := dir.Predict(d, pc)
		if ev == 0 {
			ctrl.ContextSwitch(th)
		}
		dir.Update(d, pc, takens[i])
		if p {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	var w snap.Writer
	dir.(snap.Snapshotter).Snapshot(&w)
	ctrl.Snapshot(&w)
	return digest16(bits), digest16(w.Bytes())
}

func digest16(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// goldenDigests holds the pinned (prediction bits, snapshot) hashes per
// predictor/configuration. They were computed with the straightforward
// kernels — shift-register history, shift-formula folds, a longest-first
// TAGE scan, a word key per codec call — so they pin the values
// independently of the optimized ones, and every kernel change must
// reproduce them. A deliberate change to simulated behaviour regenerates
// them from the failure output and says why in CHANGES.md.
var goldenDigests = map[string][2]string{
	"gshare/baseline":                 {"360485d8f7af50f0", "0b08408c5ebf0069"},
	"gshare/complete-flush":           {"ae764db65b6e4110", "f8fdedb0ae32f2a9"},
	"gshare/noisy-rotxor-feistel":     {"966eec48cea8c004", "f959642ffe35f30c"},
	"gshare/noisy-xor":                {"b90e93ffc5fe41d9", "fc6c5e65487e40b3"},
	"gshare/precise-flush":            {"12d2c424664d4cc6", "46712a486f1d423d"},
	"gshare/xor":                      {"9650c6c17102250b", "b54c1a0838d88a07"},
	"gshare/xor-plain-pht":            {"eccfee3315d1463c", "e64053860621c2b7"},
	"ltage/baseline":                  {"922432a760062eb7", "adeee105f9958b16"},
	"ltage/complete-flush":            {"800afb74d30baf32", "b6f11a206c22b5cc"},
	"ltage/noisy-rotxor-feistel":      {"23536f38b6dd7ad9", "4d9cd23f6ccc11a1"},
	"ltage/noisy-xor":                 {"1ad0d97c6843cba6", "0ec4fc3865cf4746"},
	"ltage/precise-flush":             {"7ae905a0d8e10d4f", "4a0aedd3d1f5a012"},
	"ltage/xor":                       {"5664270ba33c44bf", "0804834c0a8709e1"},
	"ltage/xor-plain-pht":             {"392d84796a686d52", "c720a0be0f6cb9f8"},
	"perceptron/baseline":             {"a325a87edc8a6b84", "5c1e1eafd21fc136"},
	"perceptron/complete-flush":       {"6aa49662988d643a", "3849eaa2bae01683"},
	"perceptron/noisy-rotxor-feistel": {"4bd517f7987a19c6", "06ff8048733c9c5d"},
	"perceptron/noisy-xor":            {"bc796d7fbf760a63", "8912446f432f7dc1"},
	"perceptron/precise-flush":        {"3b93ef67f5c58dae", "d528d6aef0f03bfd"},
	"perceptron/xor":                  {"6fc34f44c0016f75", "b6b28097c35233cc"},
	"perceptron/xor-plain-pht":        {"1853349c96cedc74", "17a28d135ad46ac5"},
	"tage/baseline":                   {"d79aa21d13e63330", "509993fd0392c22b"},
	"tage/complete-flush":             {"b69161d8f646200e", "3f03726258973905"},
	"tage/noisy-rotxor-feistel":       {"8bbbde6824834787", "50182ac20c0fc1fc"},
	"tage/noisy-xor":                  {"b8c01754d72a3c18", "e5c51c2c3099def2"},
	"tage/precise-flush":              {"0cb58a2e1378160e", "5f54ecd70e221217"},
	"tage/xor":                        {"a328794e7e9bcb05", "90d4615012338f7e"},
	"tage/xor-plain-pht":              {"5bda7ed32a08f3e1", "564ec0f77d5819ac"},
	"tage_sc_l/baseline":              {"ac102a4e61288e8f", "395115ec51645611"},
	"tage_sc_l/complete-flush":        {"3f464a55b8276eac", "e878b892b4c1b8f0"},
	"tage_sc_l/noisy-rotxor-feistel":  {"d9ba3b8c63b5666b", "604ae769f58861f9"},
	"tage_sc_l/noisy-xor":             {"aee495285c898d68", "12b6087c385057a6"},
	"tage_sc_l/precise-flush":         {"59a2c13ed62e2869", "a301cca11adeca3c"},
	"tage_sc_l/xor":                   {"f36cc37b2a1ad4a4", "54565844503e8ccb"},
	"tage_sc_l/xor-plain-pht":         {"f863e1f37a04c48a", "1c680c82111155d1"},
	"tournament/baseline":             {"b8d6ffb7ca079ffe", "bb483e4b5dfdf01c"},
	"tournament/complete-flush":       {"4bbb2b8677315560", "5684241195d27282"},
	"tournament/noisy-rotxor-feistel": {"dbcf39b42f36696b", "b9e63ce7f437db47"},
	"tournament/noisy-xor":            {"5a31e23160297d47", "bbce1e26743e7601"},
	"tournament/precise-flush":        {"a64735c6df6afb31", "a5b099156d7240cc"},
	"tournament/xor":                  {"864e02bb65aa9fb5", "a79c02ef98a58ca8"},
	"tournament/xor-plain-pht":        {"0db9a935be74505f", "896afb18e5f3bf70"},
}

func TestGoldenPredictorStream(t *testing.T) {
	pcs, takens := goldenStream()
	if len(pcs) < goldenEvents/4 {
		t.Fatalf("stream has only %d conditional branches", len(pcs))
	}
	for _, name := range predictorsUnderTest() {
		for _, o := range goldenOptions() {
			key := name + "/" + o.name
			t.Run(key, func(t *testing.T) {
				t.Parallel() // independent replays over a read-only stream
				preds, state := replayGolden(name, o.opts, pcs, takens)
				want, ok := goldenDigests[key]
				if !ok || want != [2]string{preds, state} {
					t.Errorf("digest mismatch: got %s, want %q", fmt.Sprintf("%q: {%q, %q},", key, preds, state), want)
				}
			})
		}
	}
}
