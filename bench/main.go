// Command bench is the repository's performance yardstick: end-to-end
// samples of four named workloads, one traced sample of each, a
// per-layer micro-suite, and a correctness oracle that pins every
// simulated result. It drives the simulator's packages from outside,
// through their public functions only.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash bench/run.sh [-seed N] [-samples 5] [-out F] [-check F]
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//
// Without -workload it runs the full suite: -samples rounds of one
// sample per workload, round-robin (capped by -seconds when set), then
// one traced sample per workload (Chrome trace JSON under -trace-dir)
// and the micro-suite. It prints every end-to-end metric per workload
// with its median, IQR and sample count, writes the report to -out, and
// with -check compares it against a baseline report.
//
// With -workload W and -trace 0 it samples W alone for -seconds and
// prints W's end-to-end metrics. With -trace 1 it runs the full suite,
// whose rounds stop once -seconds is spent (after at least one), and
// prints the per-layer metrics. Either way the last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Every sample is a fresh child process of this binary with a fresh
// run-cache directory; the parent reads the child's CPU time and peak
// RSS from its rusage. The exit status is non-zero when any output
// fails its check or -check finds a regression.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reportSchema identifies the -out report encoding.
const reportSchema = "xorbp-bench/v2"

// childTimeout bounds one sample process; a hung fleet must not hang
// the run.
const childTimeout = 150 * time.Second

//go:embed digests.json
var digestsJSON []byte

// digestPair is a sample's two output digests.
type digestPair struct {
	Results string `json:"results_sha256"`
	Render  string `json:"render_sha256"`
}

func main() {
	var (
		workload = flag.String("workload", "", "sample one workload ("+strings.Join(workloadNames, ", ")+"); empty runs the full suite")
		seed     = flag.Uint64("seed", 1, "input seed: every workload and micro-suite input derives from it")
		seconds  = flag.Int("seconds", 0, "measurement budget in seconds (0: no budget; the full suite runs -samples rounds)")
		traceOn  = flag.Int("trace", 0, "with -workload: 1 runs the traced suite and prints the per-layer metrics")
		samples  = flag.Int("samples", 5, "full suite: rounds of one sample per workload")
		out      = flag.String("out", "", "write the full report as JSON to this file")
		check    = flag.String("check", "", "compare the full report against this baseline report")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced samples' Chrome trace files")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for run caches and fixtures")

		child   = flag.String("child", "", "internal: run one sample (\"sample\") or the micro-suite (\"layers\") and print its JSON")
		dir     = flag.String("dir", "", "internal: the child's scratch directory")
		fixture = flag.String("fixture", "", "internal: the figs-warm fixture store")
		traceTo = flag.String("trace-out", "", "internal: trace the sample and write the trace here")
	)
	flag.Parse()

	switch *child {
	case "sample":
		os.Exit(childSample(*workload, *seed, *dir, *fixture, *traceTo))
	case "layers":
		os.Exit(childLayers(*seed, *dir, *fixture))
	case "":
	default:
		fatalf("unknown -child %q", *child)
	}

	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fatalf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if *samples < 1 {
		fatalf("-samples must be at least 1")
	}
	r, err := newRun(*seed, *work, *traceDir)
	if err != nil {
		fatalf("%v", err)
	}
	budget := time.Duration(*seconds) * time.Second
	var code int
	if *workload != "" && *traceOn == 0 {
		code = r.single(*workload, budget)
	} else {
		code = r.suite(*samples, budget, *out, *check)
	}
	r.cleanup()
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// childSample runs one sample in this process and prints its result.
func childSample(name string, seed uint64, dir, fixture, traceTo string) int {
	var t *tracer
	if traceTo != "" {
		t = newTracer()
	}
	res := runSample(name, fullSizes(seed), dir, fixture, t)
	if t != nil {
		res.Traced = t.metrics
		if err := t.write(traceTo); err != nil {
			res.fail(fmt.Errorf("writing the trace: %w", err))
		}
	}
	return printJSON(res)
}

// childLayers runs the micro-suite in this process and prints it.
func childLayers(seed uint64, dir, fixture string) int {
	m, err := runLayers(seed, fixture, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: micro-suite: %v\n", err)
		return 1
	}
	return printJSON(m)
}

func printJSON(v any) int {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// run is one parent invocation: it spawns the samples, checks their
// outputs and aggregates their metrics.
type run struct {
	exe      string
	seed     uint64
	dir      string // this run's scratch directory, removed at exit
	traceDir string
	pins     map[string]digestPair // this seed's pinned digests by workload, if any
	nsample  int

	fixture    string
	ref        map[string]digestPair // first sample per workload, for seeds without pins
	coldTables map[string]string     // figs-cold per-table digests, for figs-warm
	samples    map[string][]sampleResult
	problems   []string
	attempted  int
	failed     int
}

func newRun(seed uint64, work, traceDir string) (*run, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	var pinned map[string]map[string]digestPair
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &run{exe: exe, seed: seed, dir: dir, traceDir: traceDir,
		pins: pinned[strconv.FormatUint(seed, 10)], ref: map[string]digestPair{},
		samples: map[string][]sampleResult{}}, nil
}

func (r *run) cleanup() { _ = os.RemoveAll(r.dir) }

func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "bench: "+msg)
}

// spawn runs this binary as a child and decodes the last line of its
// standard output into v. It returns the child's rusage.
func (r *run) spawn(v any, args ...string) (*syscall.Rusage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var ru *syscall.Rusage
	if cmd.ProcessState != nil {
		ru, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	}
	if err != nil {
		return ru, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	line := lastLine(stdout.Bytes())
	if err := json.Unmarshal(line, v); err != nil {
		return ru, fmt.Errorf("child %s: decoding %q: %w", strings.Join(args, " "), line, err)
	}
	return ru, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// sample runs one sample of w in a fresh directory and checks it. A
// traced sample writes its trace file into the trace directory.
func (r *run) sample(w string, traced bool) sampleResult {
	r.nsample++
	dir := filepath.Join(r.dir, fmt.Sprintf("%s-%d", w, r.nsample))
	args := []string{"-child", "sample", "-workload", w, "-seed", strconv.FormatUint(r.seed, 10), "-dir", dir}
	if w == figsWarm {
		args = append(args, "-fixture", r.fixture)
	}
	if traced {
		if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
			r.problem("%v", err)
		}
		args = append(args, "-trace-out", filepath.Join(r.traceDir, "trace-"+w+".json"))
	}
	var s sampleResult
	ru, err := r.spawn(&s, args...)
	if ru != nil {
		s.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		s.Workload, s.Err = w, err.Error()
		if s.Attempted == 0 {
			s.Attempted = 1 // a crashed sample still counts as attempted work
		}
	}
	r.verify(&s)
	if w == figsCold && r.fixture == "" && s.Err == "" && s.Failed == 0 {
		r.fixture = filepath.Join(r.dir, "fixture")
		if err := os.Rename(filepath.Join(dir, "store"), r.fixture); err != nil {
			r.problem("keeping the figs-warm fixture: %v", err)
			r.fixture = ""
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		r.problem("%v", err)
	}
	return s
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// verify checks a sample's outputs: its executor error, the pinned
// digests (or, for an unpinned seed, agreement with the run's first
// sample of the workload), and figs-warm's tables against figs-cold's.
// A failed check marks every cell of the sample failed.
func (r *run) verify(s *sampleResult) {
	w := s.Workload
	bad := func(format string, args ...any) {
		r.problem("%s sample: "+format, append([]any{w}, args...)...)
		s.Failed = s.Attempted
	}
	got := digestPair{s.ResultsSHA, s.RenderSHA}
	switch {
	case s.Err != "":
		bad("%s", s.Err)
	case r.pins != nil:
		if want, ok := r.pins[w]; !ok {
			bad("no pinned digests for seed %d", r.seed)
		} else if got != want {
			bad("digests %+v differ from the pinned %+v", got, want)
		}
	default:
		if want, ok := r.ref[w]; !ok {
			r.ref[w] = got
		} else if got != want {
			bad("digests %+v differ from the run's first sample %+v", got, want)
		}
	}
	if s.Err == "" && w == figsCold && r.coldTables == nil {
		r.coldTables = s.Tables
	}
	if s.Err == "" && w == figsWarm && r.coldTables != nil {
		for name, sum := range s.Tables {
			if r.coldTables[name] != sum {
				bad("table %s renders differently from figs-cold", name)
			}
		}
	}
	r.attempted += s.Attempted
	r.failed += s.Failed
}

// single samples one workload, untraced, for about the budget: it
// starts another sample while at least half a sample's time remains,
// so the run ends as close to the budget as whole samples allow. It
// prints the workload's end-to-end metrics.
func (r *run) single(w string, budget time.Duration) int {
	if w == figsWarm {
		r.sample(figsCold, false) // the fixture; untimed, but its outputs are checked
	}
	start := time.Now()
	var durs []float64
	var ss []sampleResult
	for {
		t0 := time.Now()
		s := r.sample(w, false)
		ss = append(ss, s)
		durs = append(durs, since(t0))
		if s.Err != "" || time.Since(start).Seconds()+median(durs)/2 > budget.Seconds() {
			break // a failed sample ends the run: its failure is already reported
		}
	}
	r.samples[w] = ss
	metrics := map[string]metricOut{}
	for _, d := range endToEnd {
		metrics[d.Name] = metricOut{Value: summarize(collect(ss, d.Name)).Median, Unit: d.Unit}
	}
	printTable(os.Stdout, map[string][]sampleResult{w: ss})
	return r.finish(metrics, 0)
}

// metricOut is one metric of the final line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the final JSON line and returns the exit status.
func (r *run) finish(metrics map[string]metricOut, regressions int) int {
	correct := len(r.problems) == 0
	if r.attempted == 0 {
		r.attempted = 1
		correct = false
	}
	printJSON(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if !correct || regressions > 0 {
		return 1
	}
	return 0
}

// suite runs rounds of one untraced sample per workload (round-robin,
// so host drift hits every workload alike; a budget stops it after the
// round that spends it), then one traced sample per workload and the
// micro-suite. It prints the per-layer metrics.
func (r *run) suite(rounds int, budget time.Duration, outPath, checkPath string) int {
	start := time.Now()
	for round := 0; round < rounds && (round == 0 || budget == 0 || time.Since(start) < budget); round++ {
		for _, w := range workloadNames {
			r.samples[w] = append(r.samples[w], r.sample(w, false))
		}
	}
	traced := map[string]sampleResult{}
	for _, w := range workloadNames {
		traced[w] = r.sample(w, true)
	}
	samples := layerSamples{}
	if r.fixture == "" {
		r.problem("no figs-warm fixture: the micro-suite needs a clean figs-cold sample")
	} else if _, err := r.spawn(&samples, "-child", "layers", "-seed", strconv.FormatUint(r.seed, 10),
		"-dir", filepath.Join(r.dir, "layers"), "-fixture", r.fixture); err != nil {
		r.problem("micro-suite: %v", err)
	}
	layers := map[string]summary{}
	medians := map[string]float64{}
	for k, v := range samples {
		layers[k] = summarize(v)
		medians[k] = layers[k].Median
	}
	for _, w := range workloadNames {
		for k, v := range traced[w].Traced {
			layers[k] = summarize([]float64{v})
		}
		if base := summarize(collect(r.samples[w], "wall_s")).Median; base > 0 && traced[w].WallS > 0 {
			layers["tracing."+w+".overhead_share"] = summarize([]float64{traced[w].WallS/base - 1})
		}
	}
	if v, ok := residualShare(traced[figsCold].Attribution, medians); ok {
		layers["attribution.figs-cold.residual_share"] = summarize([]float64{v})
	}

	metrics := map[string]metricOut{}
	for _, d := range layerMetrics() {
		s, ok := layers[d.Name]
		if !ok {
			r.problem("per-layer metric %s was not produced", d.Name)
			continue
		}
		metrics[d.Name] = metricOut{Value: s.Median, Unit: d.Unit}
	}

	rep := r.report(layers)
	printTable(os.Stdout, r.samples)
	printLayers(os.Stdout, metrics)
	regressions := 0
	if checkPath != "" {
		base, err := readReport(checkPath)
		if err != nil {
			r.problem("-check: %v", err)
		} else {
			rep.Check = checkReports(rep, base)
			regressions = printCheck(os.Stdout, rep.Check)
		}
	}
	if outPath != "" {
		if err := writeReport(outPath, rep); err != nil {
			r.problem("-out: %v", err)
		}
	}
	return r.finish(metrics, regressions)
}

// residualShare is the part of figs-cold's executed cell time the
// layer costs do not predict: 1 - Σ(cond branches × predictor ns/branch
// + instructions × cycle-loop ns/inst) / Σ cell time.
func residualShare(groups []attrGroup, layers map[string]float64) (float64, bool) {
	var predicted, cellMS float64
	for _, g := range groups {
		ns, ok1 := layers["predictor."+g.Pred+".ns_per_branch"]
		loop, ok2 := layers["cpu."+g.CPU+".ns_per_kinst"]
		if !ok1 || !ok2 {
			return 0, false
		}
		switch g.Enc {
		case "xor":
			ns *= layers["predictor."+g.Pred+".xor_ratio"]
		case "noisy":
			ns *= layers["predictor."+g.Pred+".noisy_ratio"]
		}
		predicted += g.CondBranches*ns + g.Instructions*loop/1000
		cellMS += g.CellMS
	}
	if cellMS == 0 {
		return 0, false
	}
	return 1 - predicted/1e6/cellMS, true
}

// benchReport is the -out document (BENCH_11.json).
type benchReport struct {
	Schema    string                    `json:"schema"`
	Go        string                    `json:"go"`
	NProc     int                       `json:"nproc"`
	Seed      uint64                    `json:"seed"`
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Workloads map[string]workloadReport `json:"workloads"`
	Layers    map[string]summary        `json:"layers"` // traced metrics have n = 1
	Check     []checkRow                `json:"check,omitempty"`
}

type workloadReport struct {
	Digests digestPair              `json:"digests"`
	Metrics map[string]metricReport `json:"metrics"`
}

type metricReport struct {
	metricDef
	summary
	Samples []float64 `json:"samples"`
}

func (r *run) report(layers map[string]summary) benchReport {
	rep := benchReport{Schema: reportSchema, Go: runtime.Version(), NProc: nproc, Seed: r.seed,
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Workloads: map[string]workloadReport{}, Layers: layers}
	for w, ss := range r.samples {
		wr := workloadReport{Metrics: map[string]metricReport{}}
		if len(ss) > 0 {
			wr.Digests = digestPair{ss[0].ResultsSHA, ss[0].RenderSHA}
		}
		for _, d := range reportMetrics {
			vs := collect(ss, d.Name)
			if len(vs) == 0 {
				continue
			}
			wr.Metrics[d.Name] = metricReport{d, summarize(vs), vs}
		}
		rep.Workloads[w] = wr
	}
	return rep
}

func writeReport(path string, rep benchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("decoding %s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return rep, fmt.Errorf("%s has schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return rep, nil
}

// checkRow is one -check verdict.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Base     float64 `json:"base_median"`
	Cur      float64 `json:"median"`
	Change   float64 `json:"change"`  // share of the base median, positive = worse
	Verdict  string  `json:"verdict"` // ok, better, unresolved or REGRESSION
}

// checkReports compares every end-to-end metric's median against the
// baseline's, within the metric's bound. Where the baseline's own IQR
// is wider than the bound, a change cannot be resolved: the verdict is
// "unresolved" unless every current sample beats every baseline sample.
func checkReports(cur, base benchReport) []checkRow {
	var rows []checkRow
	for _, w := range workloadNames {
		for _, d := range reportMetrics {
			c, ok1 := cur.Workloads[w].Metrics[d.Name]
			b, ok2 := base.Workloads[w].Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			row := checkRow{Workload: w, Metric: d.Name, Base: b.Median, Cur: c.Median}
			worse := c.Median - b.Median
			if d.Better == "higher" {
				worse = -worse
			}
			allowed := d.Bound * b.Median
			if d.Name == "setup_s" && allowed < setupFloorS {
				allowed = setupFloorS
			}
			if b.Median != 0 {
				row.Change = worse / b.Median
			}
			switch {
			case allBetter(c.Samples, b.Samples, d.Better):
				row.Verdict = "better"
			case d.Name != "failed_share" && b.IQRShare() > d.Bound:
				row.Verdict = "unresolved"
			case worse > allowed:
				row.Verdict = "REGRESSION"
			default:
				row.Verdict = "ok"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// allBetter reports whether every current sample beats every baseline
// sample.
func allBetter(cur, base []float64, better string) bool {
	if len(cur) == 0 || len(base) == 0 {
		return false
	}
	lo, hi := minMax(cur)
	blo, bhi := minMax(base)
	if better == "higher" {
		return lo > bhi
	}
	return hi < blo
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// printTable prints every end-to-end metric per workload: median, IQR
// as a share of the median, and the sample count.
func printTable(w io.Writer, samples map[string][]sampleResult) {
	fmt.Fprintf(w, "%-11s %-16s %-8s %14s %8s %4s\n", "workload", "metric", "unit", "median", "IQR", "n")
	for _, wl := range workloadNames {
		ss, ok := samples[wl]
		if !ok {
			continue
		}
		for _, d := range reportMetrics {
			vs := collect(ss, d.Name)
			if len(vs) == 0 {
				continue
			}
			s := summarize(vs)
			fmt.Fprintf(w, "%-11s %-16s %-8s %14.6g %7.1f%% %4d\n", wl, d.Name, d.Unit, s.Median, s.IQRShare()*100, s.N)
		}
	}
	fmt.Fprintln(w)
}

func printLayers(w io.Writer, metrics map[string]metricOut) {
	fmt.Fprintf(w, "%-48s %14s %s\n", "per-layer metric", "value", "unit")
	for _, d := range layerMetrics() {
		if m, ok := metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-48s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintln(w)
}

// printCheck prints the -check verdicts and returns the regression count.
func printCheck(w io.Writer, rows []checkRow) int {
	n := 0
	fmt.Fprintf(w, "%-11s %-16s %14s %14s %8s  %s\n", "workload", "metric", "base", "current", "worse", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-11s %-16s %14.6g %14.6g %7.1f%%  %s\n", c.Workload, c.Metric, c.Base, c.Cur, c.Change*100, c.Verdict)
		if c.Verdict == "REGRESSION" {
			n++
		}
	}
	fmt.Fprintln(w)
	return n
}
