package xorbp

// Rendered-table goldens: the micro-scale, seed-1 text of the figures
// and tables that run the cycle loop on both core shapes (one context:
// Figures 1 and 9, Table 4; SMT: Figures 2, 3 and 10), committed under
// testdata/golden. Where the cpu equivalence tests prove that two loops
// agree, these pin what the whole pipeline — workload generation,
// predictors, the cycle loop, the executor and rendering — prints. A
// failure lists the lines that moved.
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

	"xorbp/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current renders")

// goldenTables are the pinned renders, in the order they are checked;
// -short checks the first two (one single-context and one SMT figure).
var goldenTables = []struct {
	name   string
	render func(*experiment.Session) *experiment.Table
}{
	{"fig1", (*experiment.Session).Figure1},
	{"fig2", (*experiment.Session).Figure2},
	{"fig3", (*experiment.Session).Figure3},
	{"fig9", (*experiment.Session).Figure9},
	{"fig10", (*experiment.Session).Figure10},
	{"table4", (*experiment.Session).Table4},
}

func TestGoldenTables(t *testing.T) {
	tables := goldenTables
	if testing.Short() {
		tables = tables[:2]
	}
	s := experiment.NewSession(experiment.MicroScale())
	for _, g := range tables {
		t.Run(g.name, func(t *testing.T) {
			got := g.render(s).Render()
			path := filepath.Join("testdata", "golden", g.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s no longer matches %s:\n%s", g.name, path, lineDiff(string(want), got))
			}
		})
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
