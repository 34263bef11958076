package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/report"
	"xorbp/internal/runcache"
)

// parseFlags registers the shared flags on a fresh flag set and parses
// args into it.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

// invoke runs exps through Main and Run as a main would, returning the
// exit status and what went to stdout and stderr.
func invoke(t *testing.T, exps []Experiment, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	f := parseFlags(t, args...)
	var out, errb bytes.Buffer
	code = Main("test", f, &errb, func() error { return Run("test", f, exps, &out, &errb) })
	return code, out.String(), errb.String()
}

// testScale is MicroScale, cut 4x under -short.
func testScale() experiment.Scale {
	scale := experiment.MicroScale()
	if testing.Short() {
		scale.WarmupInstr /= 4
		scale.MeasureInstr /= 4
		scale.SMTWarmupInstr /= 4
		scale.SMTMeasureInstr /= 4
		for i := range scale.TimerPeriods {
			scale.TimerPeriods[i] /= 4
		}
	}
	return scale
}

// probe counts how the experiments of testExps are invoked.
type probe struct {
	// fig1Planned is the executor's planned-cell count each time Figure
	// 1 starts: 0 against the planner, the whole grid against the real
	// executor once the planner pass declared it.
	fig1Planned []int
	// table2Runs counts the static experiment's invocations.
	table2Runs int
}

// testExps is a two-experiment invocation: Figure 1, which simulates,
// then Table 2, which does not (Sims unset).
func testExps(scale experiment.Scale, p *probe) []Experiment {
	return []Experiment{
		{Name: "fig1", Sims: true, Run: func(e *experiment.Executor) ([]*report.Table, error) {
			p.fig1Planned = append(p.fig1Planned, e.Planned())
			return []*report.Table{experiment.NewSessionWith(scale, e).Figure1()}, nil
		}},
		{Name: "table2", Run: func(*experiment.Executor) ([]*report.Table, error) {
			p.table2Runs++
			return []*report.Table{experiment.Table2()}, nil
		}},
	}
}

// fig1Cells is the size of Figure 1's grid at scale, counted by a
// planner pass alone.
func fig1Cells(t *testing.T, scale experiment.Scale) int {
	t.Helper()
	planner := experiment.NewPlanner()
	experiment.NewSessionWith(scale, planner).Figure1()
	if planner.Planned() == 0 {
		t.Fatal("Figure 1 planned no cells")
	}
	return planner.Planned()
}

// stream splits a -json stdout into its run records and its summary.
func stream(t *testing.T, out string) (runs []experiment.RunRecord, sum Summary) {
	t.Helper()
	summaries := 0
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, `{"type":"run"`):
			var r experiment.RunRecord
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("run record %q: %v", line, err)
			}
			runs = append(runs, r)
		case strings.HasPrefix(line, `{"type":"summary"`):
			summaries++
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("summary %q: %v", line, err)
			}
		}
	}
	if summaries != 1 {
		t.Fatalf("%d summary records, want 1:\n%s", summaries, out)
	}
	return runs, sum
}

func TestConnectLocal(t *testing.T) {
	c, err := connect("test", parseFlags(t, "-workers", "7"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if c.backend != nil || c.fb != nil {
		t.Fatal("local connect returned a remote backend")
	}
	if c.poolSize != 7 || c.name != "local" {
		t.Fatalf("local connect = (%d, %q), want (7, local)", c.poolSize, c.name)
	}
}

func TestSummarize(t *testing.T) {
	exec := experiment.NewExecutor(2)
	exec.SetShard(1, 4)
	rec := summarize(exec, &conn{name: "local"}, time.Second)
	if rec.Type != "summary" || rec.Backend != "local" || rec.Workers != 2 || rec.WorkerCached != 0 {
		t.Fatalf("summary = %+v", rec)
	}
	if rec.Shard != "1/4" {
		t.Fatalf("shard = %q, want 1/4", rec.Shard)
	}
	if rec.WallMS != 1000 {
		t.Fatalf("wall = %vms, want 1000", rec.WallMS)
	}
	if rec = summarize(experiment.NewExecutor(2), &conn{name: "local"}, 0); rec.Shard != "" {
		t.Fatalf("unsharded summary carries shard %q", rec.Shard)
	}
}

// TestExitCodes: every configuration error comes back from Main as its
// exit status and one "prog: msg" line, and nothing runs.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")
	// A regular file where the cache directory should be: the open
	// fails, and a shard would have nowhere to put its results.
	notDir := filepath.Join(t.TempDir(), "cache")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := runcache.Open(notDir, experiment.SchemaVersion())
	if openErr == nil {
		t.Fatal("a run cache opened on a regular file")
	}
	cases := []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-shard", "1/2/4"}, 2, `invalid -shard "1/2/4" (want I/N with 0 <= I < N)`},
		{[]string{"-shard", "2/2"}, 2, `invalid -shard "2/2" (want I/N with 0 <= I < N)`},
		{[]string{"-shard", "-1/2"}, 2, `invalid -shard "-1/2" (want I/N with 0 <= I < N)`},
		{[]string{"-shard", "x/2"}, 2, `invalid -shard "x/2" (want I/N with 0 <= I < N)`},
		{[]string{"-shard", "0/0"}, 2, `invalid -shard "0/0" (want I/N with 0 <= I < N)`},
		{[]string{"-shard", "0/2", "-cache", ""}, 1, "-shard without -cache or -fleet would discard every result; " +
			"point the shards at a shared -cache (or run them as -fleet leaders: bpserve -pull workers cache on their side)"},
		{[]string{"-shard", "0/2", "-cache", notDir}, 1, "-shard 0/2 would discard every result: " + openErr.Error()},
		{[]string{"-tls-cert", "c.pem"}, 2, "-tls-cert and -tls-key come as a pair"},
		{[]string{"-tls-cert", "c.pem", "-tls-key", "k.pem"}, 2,
			"-tls-cert/-tls-key secure the -fleet leader endpoint; they need -fleet"},
		{[]string{"-cpuprofile", missing}, 1, "-cpuprofile: open " + missing + ": no such file or directory"},
	}
	for _, tc := range cases {
		var p probe
		exps := testExps(testScale(), &p)
		// The two cache cases set their own -cache; the others fail
		// before opening one, and must not touch the default.
		args := append([]string{"-cache", t.TempDir()}, tc.args...)
		code, stdout, stderr := invoke(t, exps, args...)
		if code != tc.code || stderr != "test: "+tc.msg+"\n" {
			t.Errorf("%q: exit %d, stderr %q; want exit %d, %q", tc.args, code, stderr, tc.code, "test: "+tc.msg+"\n")
		}
		if stdout != "" || len(p.fig1Planned) != 0 || p.table2Runs != 0 {
			t.Errorf("%q: experiments ran before the error: stdout %q", tc.args, stdout)
		}
	}
}

// TestRunColdWarm runs Figure 1 and a static table in process on a
// temp cache: the cold -json stream records every simulated cell once,
// the warm one replays every planned cell and simulates none, and text
// mode prints one timing line per experiment.
func TestRunColdWarm(t *testing.T) {
	scale := testScale()
	cells := fig1Cells(t, scale)
	cache := t.TempDir()

	var p probe
	code, cold, stderr := invoke(t, testExps(scale, &p), "-cache", cache, "-json")
	if code != 0 {
		t.Fatalf("cold run exit %d: %s", code, stderr)
	}
	runs, sum := stream(t, cold)
	keys := map[string]bool{}
	for _, r := range runs {
		if r.Cached || keys[r.Key] {
			t.Fatalf("cold stream: replayed or repeated record %+v", r)
		}
		keys[r.Key] = true
	}
	if len(runs) != cells || sum.Planned != cells || sum.Simulated != uint64(cells) || sum.Cached != 0 || sum.Shard != "" {
		t.Fatalf("cold: %d run records, summary %+v; want %d simulated cells", len(runs), sum, cells)
	}
	for _, name := range []string{"fig1", "table2"} {
		if !strings.Contains(cold, `"experiment": "`+name+`"`) {
			t.Fatalf("cold stream has no %s table", name)
		}
	}
	// The planner declared Figure 1's grid before it ran for real, and
	// skipped the static table.
	if len(p.fig1Planned) != 2 || p.fig1Planned[1] != cells || p.table2Runs != 1 {
		t.Fatalf("fig1 saw planned %v, table2 ran %d times; want [0 %d] and 1",
			p.fig1Planned, p.table2Runs, cells)
	}

	code, warm, stderr := invoke(t, testExps(scale, &probe{}), "-cache", cache, "-json")
	if code != 0 {
		t.Fatalf("warm run exit %d: %s", code, stderr)
	}
	runs, sum = stream(t, warm)
	for _, r := range runs {
		if !r.Cached || !keys[r.Key] {
			t.Fatalf("warm stream: record %+v is not a replay of a cold cell", r)
		}
		delete(keys, r.Key)
	}
	if len(keys) != 0 || sum.Simulated != 0 || sum.Cached != sum.Planned || sum.Planned != cells {
		t.Fatalf("warm: %d cold cells not replayed, summary %+v", len(keys), sum)
	}

	code, text, stderr := invoke(t, testExps(scale, &probe{}), "-cache", cache)
	if code != 0 {
		t.Fatalf("text run exit %d: %s", code, stderr)
	}
	for _, name := range []string{"fig1", "table2"} {
		if n := strings.Count(text, "["+name+" completed in "); n != 1 {
			t.Fatalf("%d %s timing lines, want 1:\n%s", n, name, text)
		}
	}
	if strings.Count(text, " completed in ") != 2 || strings.Contains(text, `{"type":`) {
		t.Fatalf("text output:\n%s", text)
	}
}

// TestRunShardLines: under -shard each experiment's stderr line counts
// only its own cells, and the two shards resolve the unsharded grid
// between them.
func TestRunShardLines(t *testing.T) {
	scale := testScale()
	cells := fig1Cells(t, scale)
	line := regexp.MustCompile(`^\[shard (\d)/2\] (\w+): (\d+) resolved, (\d+) skipped \(tables suppressed\)$`)
	resolved := 0
	for i := 0; i < 2; i++ {
		shard := fmt.Sprintf("%d/2", i)
		code, stdout, stderr := invoke(t, testExps(scale, &probe{}), "-shard", shard, "-cache", t.TempDir(), "-json")
		if code != 0 {
			t.Fatalf("shard %s exit %d: %s", shard, code, stderr)
		}
		lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("shard %s stderr:\n%s", shard, stderr)
		}
		var got [2][2]int
		for j, want := range []string{"fig1", "table2"} {
			m := line.FindStringSubmatch(lines[j])
			if m == nil || m[1] != strconv.Itoa(i) || m[2] != want {
				t.Fatalf("shard %s line %d = %q, want %s's", shard, j, lines[j], want)
			}
			got[j][0], _ = strconv.Atoi(m[3])
			got[j][1], _ = strconv.Atoi(m[4])
		}
		if got[0][0] == 0 || got[0][0]+got[0][1] != cells || got[1] != [2]int{} {
			t.Fatalf("shard %s counted fig1 %v and table2 %v; want fig1's %d cells split and table2 empty",
				shard, got[0], got[1], cells)
		}
		resolved += got[0][0]

		runs, sum := stream(t, stdout)
		if strings.Contains(stdout, `"experiment":`) || sum.Shard != shard ||
			len(runs) != got[0][0] || sum.Skipped != got[0][1] {
			t.Fatalf("shard %s: %d run records, summary %+v, tables suppressed: %v",
				shard, len(runs), sum, !strings.Contains(stdout, `"experiment":`))
		}
	}
	if resolved != cells {
		t.Fatalf("shards resolved %d cells between them, want the unsharded %d", resolved, cells)
	}
}

// TestConnectPullMatchesSerial: the -fleet topology end to end. connect
// starts a pull-queue leader, a worker claims from its address, and
// Figure 1 rendered through the connection is byte-identical to the
// serial render, because every simulation is a pure function of its
// canonical spec.
func TestConnectPullMatchesSerial(t *testing.T) {
	scale := testScale()
	serial := experiment.NewSessionWith(scale, experiment.NewExecutor(1)).Figure1().Render()

	// An explicit -workers overrides the fleet's outstanding-submission
	// default.
	explicit, err := connect("test", parseFlags(t, "-fleet", "127.0.0.1:0", "-workers", "5"), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	explicit.close()
	if explicit.poolSize != 5 {
		t.Fatalf("-fleet -workers 5 pool = %d", explicit.poolSize)
	}

	var log bytes.Buffer
	c, err := connect("test", parseFlags(t, "-fleet", "127.0.0.1:0"), &log)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if c.backend == nil || c.fb == nil || c.name != "pull" ||
		c.poolSize != defaultFleetPool || c.addr == "" {
		t.Fatalf("fleet connect = (%q, pool %d, addr %q), want a pull leader",
			c.name, c.poolSize, c.addr)
	}
	if !strings.HasPrefix(log.String(), "test: fleet leader listening on http://"+c.addr) {
		t.Fatalf("leader banner = %q", log.String())
	}

	w := fleet.NewPullWorker(c.addr, "w0", experiment.LocalBackend{}, nil, 0, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	exec := experiment.NewExecutorWith(c.poolSize, c.backend)
	pull := experiment.NewSessionWith(scale, exec).Figure1().Render()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if serial != pull {
		t.Fatalf("pull Figure 1 differs from serial:\n--- serial ---\n%s\n--- pull ---\n%s",
			serial, pull)
	}
	if err := exec.Err(); err != nil {
		t.Fatalf("pull executor poisoned: %v", err)
	}
	if w.Runs() == 0 || exec.Runs() != w.Runs() {
		t.Fatalf("worker simulated %d specs, executor dispatched %d — the fleet path was not exercised",
			w.Runs(), exec.Runs())
	}
}
