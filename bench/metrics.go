package main

import (
	"regexp"

	"xorbp/internal/attack"
)

// metricDef declares a metric: its name, unit, which direction is
// better, and (end-to-end metrics) the share of the baseline median by
// which it may worsen before -check calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported per
// workload. They are BENCHMARK.json's end_to_end list, bounds included.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.24},
	{"cells_per_s", "1/s", "higher", 0.24},
	{"cpu_s", "s", "lower", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// reportOnly are end-to-end metrics the full report and -check carry
// but a single-workload run does not print: sim_minst_per_s exists only
// for figs-cold, and failed_share is 0 on a correct run (the single-
// workload output carries the same fact as "attempted" and "failed").
var reportOnly = []metricDef{
	{"sim_minst_per_s", "Minst/s", "higher", 0.24},
	{"failed_share", "share", "lower", 0},
}

// reportMetrics is every end-to-end metric of the full report.
var reportMetrics = append(append([]metricDef(nil), endToEnd...), reportOnly...)

// setupFloorS is -check's absolute allowance on setup_s: a set-up of a
// few milliseconds may worsen by this much before it counts.
const setupFloorS = 0.020

// layerMetrics lists every per-layer metric a traced run reports
// (BENCHMARK.json's per_layer list), in report order.
func layerMetrics() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) { ms = append(ms, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, p := range layerPredictors() {
		add("predictor."+p+".ns_per_branch", "ns", "lower")
		add("predictor."+p+".xor_ratio", "ratio", "lower")
		add("predictor."+p+".noisy_ratio", "ratio", "lower")
	}
	for _, p := range layerPredictors() {
		add("core."+p+".flush_us", "us", "lower")
	}
	for _, s := range loopShapes() {
		add("cpu."+s.name+".ns_per_kinst", "ns/kinst", "lower")
	}
	for _, c := range benchCells() {
		add(cellMetric(c.name), "ns/kinst", "lower")
	}
	add("workload.gen_ns_per_event", "ns", "lower")
	add("snap.core_snapshot_us", "us", "lower")
	add("snap.core_restore_us", "us", "lower")
	add("snap.core_kib", "KiB", "lower")
	add("runcache.open_us_per_entry", "us", "lower")
	add("runcache.get_ns", "ns", "lower")
	add("runcache.put_us", "us", "lower")
	add("wire.spec_key_us", "us", "lower")
	add("wire.result_encode_us", "us", "lower")
	add("wire.result_decode_us", "us", "lower")
	add("experiment.plan_ms", "ms", "lower")
	add("experiment.memo_rerender_ms", "ms", "lower")
	for _, w := range workloadNames {
		p := "experiment." + w + "."
		if w == figsWarm {
			// Every figs-warm cell is a replay with no cell time; its
			// unit of work is the invocation.
			add(p+"invocation_ms_p50", "ms", "lower")
			add(p+"invocation_ms_p99", "ms", "lower")
			continue
		}
		add(p+"cell_ms_p50", "ms", "lower")
		add(p+"cell_ms_p99", "ms", "lower")
		add(p+"busy_share", "share", "higher")
	}
	add("report.render_ms", "ms", "lower")
	for _, a := range attack.Names() {
		add("attack."+a+".cell_ms", "ms", "lower")
	}
	add("fleet.dispatch_ms_p50", "ms", "lower")
	add("fleet.dispatch_ms_p99", "ms", "lower")
	add("fleet.overhead_share", "share", "lower")
	add("fleet.specs_per_claim", "count", "higher")
	add("attribution.figs-cold.residual_share", "share", "lower")
	for _, w := range workloadNames {
		add("tracing."+w+".overhead_share", "share", "lower")
	}
	return ms
}

// validName is the character set and length every metric and workload
// name keeps to.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sampleValue reads one end-to-end metric from a sample (ok=false when
// the metric does not apply to the sample's workload).
func sampleValue(s sampleResult, name string) (float64, bool) {
	switch name {
	case "wall_s":
		return s.WallS, true
	case "cells_per_s":
		return float64(s.Cells) / s.WallS, true
	case "cpu_s":
		return s.CPUS, true
	case "peak_rss_mb":
		return s.PeakRSSMB, true
	case "sim_minst_per_s":
		return float64(s.SimInstr) / 1e6 / s.WallS, s.Workload == figsCold
	case "failed_share":
		if s.Attempted == 0 {
			return 0, true
		}
		return float64(s.Failed) / float64(s.Attempted), true
	}
	return 0, false
}

// collect gathers a metric's samples over a workload's samples; setup_s
// pools every set-up timing of every sample.
func collect(ss []sampleResult, name string) []float64 {
	var vs []float64
	for _, s := range ss {
		if name == "setup_s" {
			vs = append(vs, s.Setups...)
			continue
		}
		if v, ok := sampleValue(s, name); ok {
			vs = append(vs, v)
		}
	}
	return vs
}
