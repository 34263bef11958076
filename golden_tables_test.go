package xorbp

// Rendered-table goldens: the micro-scale, seed-1 text of every
// `bpsim -exp` table and of the five `attacksim -sweep -quick` tables,
// committed under testdata/golden. Where the cpu equivalence tests
// prove that two loops agree, these pin what the whole pipeline —
// workload generation, predictors, the cycle loop, the attack jobs, the
// executor and rendering — prints. A failure lists the lines that
// moved. Every table renders twice: once simulated, writing through to
// a run cache, and once replayed from that cache by a fresh executor,
// the way a warm bpsim invocation renders.
//
// Regenerate after a change that is meant to move simulated values:
//
//	go test -run TestGoldenTables -update .
//
// and say in CHANGES.md why the numbers moved.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xorbp/internal/attack"
	"xorbp/internal/experiment"
	"xorbp/internal/hwcost"
	"xorbp/internal/runcache"
	"xorbp/internal/secsweep"
	"xorbp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current renders")

// goldenRender renders one pinned table against a session.
type goldenRender func(*experiment.Session) (*experiment.Table, error)

// sim adapts a table whose cells resolve through the session's executor.
func sim(f func(*experiment.Session) *experiment.Table) goldenRender {
	return func(s *experiment.Session) (*experiment.Table, error) { return f(s), nil }
}

// static adapts a table that runs no simulation.
func static(f func() *experiment.Table) goldenRender {
	return func(*experiment.Session) (*experiment.Table, error) { return f(), nil }
}

// sweep adapts one table of `attacksim -sweep -quick`, resolved through
// the session's executor.
func sweep(f func(*secsweep.Sweep) *experiment.Table) goldenRender {
	return func(s *experiment.Session) (*experiment.Table, error) {
		return f(secsweep.New(secsweep.QuickConfig(), s.Executor())), nil
	}
}

// goldenTables are the pinned renders, in the order they are checked;
// -short checks the first two (one single-context and one SMT figure).
// Later figures reuse earlier figures' cells through the shared
// executor, as they do in `bpsim -exp all`.
var goldenTables = []struct {
	name   string
	render goldenRender
}{
	{"fig1", sim((*experiment.Session).Figure1)},
	{"fig2", sim((*experiment.Session).Figure2)},
	{"fig3", sim((*experiment.Session).Figure3)},
	{"fig9", sim((*experiment.Session).Figure9)},
	{"fig10", sim((*experiment.Session).Figure10)},
	{"table4", sim((*experiment.Session).Table4)},
	{"table2", static(experiment.Table2)},
	{"table3", static(experiment.Table3)},
	// bpsim renders the characterization at this size for every scale.
	{"workloads", func(*experiment.Session) (*experiment.Table, error) {
		return workload.CharacterizationTable(400_000, 1)
	}},
	{"fig7", sim((*experiment.Session).Figure7)},
	{"fig8", sim((*experiment.Session).Figure8)},
	{"rekey", sim((*experiment.Session).RekeySweep)},
	{"table5", static(hwcost.Table5)},
	{"mpki", sim((*experiment.Session).MPKI)},
	{"residency", sim((*experiment.Session).BTBResidency)},
	{"sweep-matrix-single", sweep(func(sw *secsweep.Sweep) *experiment.Table { return sw.Matrix(attack.SingleThreaded) })},
	{"sweep-matrix-smt", sweep(func(sw *secsweep.Sweep) *experiment.Table { return sw.Matrix(attack.SMT) })},
	{"sweep-rekey-curve", sweep((*secsweep.Sweep).RekeyCurve)},
	{"sweep-predictor-matrix", sweep((*secsweep.Sweep).PredictorMatrix)},
	{"sweep-verdicts", sweep((*secsweep.Sweep).Verdicts)},
}

func TestGoldenTables(t *testing.T) {
	tables := goldenTables
	if testing.Short() {
		tables = tables[:2]
	}
	scale := experiment.MicroScale()
	dir := t.TempDir()
	s := experiment.NewSessionWith(scale, storedExecutor(t, dir))
	for _, g := range tables {
		t.Run(g.name, func(t *testing.T) {
			got := renderGolden(t, g.render, s)
			if *update {
				path := goldenPath(g.name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			checkGolden(t, g.name, got)
		})
	}

	// Replay as a warm bpsim invocation does: plan the grid on a dry
	// executor, reopen the cache, Plan a fresh executor over it and
	// render again. Every planned cell must come from the store.
	planner := experiment.NewPlanner()
	ps := experiment.NewSessionWith(scale, planner)
	for _, g := range tables {
		renderGolden(t, g.render, ps) // planner tables are discarded
	}
	warm := storedExecutor(t, dir)
	warm.Plan(planner)
	ws := experiment.NewSessionWith(scale, warm)
	t.Run("replay", func(t *testing.T) {
		for _, g := range tables {
			checkGolden(t, g.name, renderGolden(t, g.render, ws))
		}
		if n := warm.Runs(); n != 0 {
			t.Errorf("the warm replay simulated %d cells", n)
		}
		if r, p := warm.Replays(), warm.Planned(); r != p {
			t.Errorf("the warm replay replayed %d of %d planned cells", r, p)
		}
	})
}

// storedExecutor returns an executor writing through to (and replaying
// from) a run cache opened on dir.
func storedExecutor(t *testing.T, dir string) *experiment.Executor {
	t.Helper()
	st, err := runcache.Open(dir, experiment.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}
	e := experiment.NewExecutor(0)
	e.SetStore(st)
	return e
}

// renderGolden renders one pinned table to text.
func renderGolden(t *testing.T, render goldenRender, s *experiment.Session) string {
	t.Helper()
	tab, err := render(s)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Render()
}

// goldenPath is the committed render of the named table.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// checkGolden compares a render with its committed golden file.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := goldenPath(name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s no longer matches %s:\n%s", name, path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between two renders, position by
// position; the table layouts are fixed, so a moved cell shows as one
// changed line rather than a shifted block.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
