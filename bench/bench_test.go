package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestNamesMatchBenchmarkJSON pins the benchmark's names to the root
// BENCHMARK.json: the workloads, the end-to-end metrics with their
// units, directions and bounds, and the per-layer metrics.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbench reports\n%v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, layerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nbench reports\n%v", spec.PerLayer, layerMetrics())
	}
	seen := map[string]bool{}
	all := append(append([]string(nil), workloadNames...), defNames(endToEnd)...)
	all = append(append(all, defNames(reportOnly)...), defNames(layerMetrics())...)
	for _, n := range all {
		if !validName.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-], at most 64 long", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func defNames(ds []metricDef) []string {
	var ns []string
	for _, d := range ds {
		ns = append(ns, d.Name)
	}
	return ns
}

// TestWorkloadsTiny runs every workload at a tiny size twice, the
// second time traced: no cell may fail, the two samples' digests must
// agree (tracing changes no result), and figs-warm must render what
// figs-cold rendered.
func TestWorkloadsTiny(t *testing.T) {
	sz := tinySizes(1)
	dir := t.TempDir()
	fixture := ""
	var cold map[string]string
	for _, w := range workloadNames {
		var first sampleResult
		for i, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			d := filepath.Join(dir, w+string(rune('a'+i)))
			s := runSample(w, sz, d, fixture, tr)
			if s.Err != "" || s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("%s sample %d: err %q, %d/%d cells failed", w, i, s.Err, s.Failed, s.Attempted)
			}
			if v, _ := sampleValue(s, "failed_share"); v != 0 {
				t.Errorf("%s: failed_share %v", w, v)
			}
			if s.WallS <= 0 || len(s.Setups) == 0 || s.ResultsSHA == "" || s.RenderSHA == "" {
				t.Errorf("%s sample %d: incomplete result %+v", w, i, s)
			}
			if i == 0 {
				first = s
				if w == figsCold {
					fixture, cold = filepath.Join(d, "store"), s.Tables
				}
				continue
			}
			if s.ResultsSHA != first.ResultsSHA || s.RenderSHA != first.RenderSHA {
				t.Errorf("%s: traced sample digests differ from the untraced sample's", w)
			}
			if len(tr.metrics) == 0 {
				t.Errorf("%s: traced sample produced no per-layer metrics", w)
			}
			path := filepath.Join(dir, "trace-"+w+".json")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &doc) != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("%s: trace file is not a non-empty Chrome trace (%v)", w, err)
			}
		}
		if w == figsWarm {
			for name, sum := range first.Tables {
				if cold[name] != sum {
					t.Errorf("figs-warm table %s renders differently from figs-cold", name)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	s := summarize([]float64{16, 1, 8, 2, 4})
	if s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 12 {
		t.Errorf("summarize = %+v, want q1 1.5, median 4, q3 12", s)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if s := summarize([]float64{5, 3}); s.Q1 != 2.5 || s.Q3 != 5.5 {
		t.Errorf("summarize of two = %+v, want q1 2.5, q3 5.5", s)
	}
}
