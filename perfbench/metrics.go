package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one reported metric with its unit and the
// direction that counts as better, after testground's
// MetricDefinition{Unit, ImprovementDir}. BENCHMARK.json at the
// repository root carries the same table; TestDeclaredMetricsMatch
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an
	// end-to-end metric may worsen before a change counts as a
	// regression. Per-layer metrics carry no bound.
	Bound float64
}

// endToEnd are the metrics a user of the counter, the lease service or
// the sorter sees. A timed run (--trace 0) reports each of them for
// every workload as the median over the run's rounds.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p90_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us/op", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics (--trace 1): the workload's own
// op and its Go runtime costs, the tracing overhead, and one rung per
// layer of the counting, lease and sorting ladders (see ladder.go for
// each rung's base and the end-to-end metric it should move).
var perLayer = []metricDef{
	{"op_p99_us", "us", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"go.allocs_per_op", "count/op", "lower", 0},
	{"go.bytes_per_op", "B/op", "lower", 0},
	{"go.gc_per_s", "1/s", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"core.build_ms", "ms", "lower", 0},
	{"runner.compile_ms", "ms", "lower", 0},
	{"runner.compile_plan_ms", "ms", "lower", 0},
	{"runner.traverse_ns", "ns", "lower", 0},
	{"counter.next_ns", "ns", "lower", 0},
	{"countnet.next_ns", "ns", "lower", 0},
	{"counter.next_obs_ns", "ns", "lower", 0},
	{"countnet.next_obs_ns", "ns", "lower", 0},
	{"obs.overhead_ratio", "ratio", "lower", 0},
	{"counter.combining_block_ns", "ns", "lower", 0},
	{"syncsrv.hub_draw_ns", "ns", "lower", 0},
	{"syncsrv.client_draw_us", "us", "lower", 0},
	{"syncsrv.transport_us", "us", "lower", 0},
	{"syncsrv.issue_log_bytes_per_value", "B", "lower", 0},
	{"runner.plan_apply_ns.L444", "ns", "lower", 0},
	{"runner.plan_apply_ns.K444", "ns", "lower", 0},
	{"countnet.batchsorter_ns.L444", "ns", "lower", 0},
	{"countnet.batchsorter_ns.K444", "ns", "lower", 0},
	{"runner.pipeline_ns.L444", "ns", "lower", 0},
	{"runner.pipeline_ns.K444", "ns", "lower", 0},
	{"countnet.sortstream_ns.L444", "ns", "lower", 0},
	{"countnet.sortstream_ns.K444", "ns", "lower", 0},
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the named values into r.Metrics with the units defs
// declares; a declared metric missing from values is an error, so a
// run can never print a partial metric set.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// printTable writes the metrics of r as a human-readable table.
func printTable(w io.Writer, title string, defs []metricDef, r *result) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-36s %14.6g %-8s %s is better\n", d.Name, m.Value, m.Unit, d.Better)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	verdict := "pass"
	if !r.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%-36s %14.6g %-8s (%d of %d ops failed)\n", "error_rate", errRate, "fraction", r.Failed, r.Attempted)
	fmt.Fprintf(w, "%-36s %14s\n", "oracle", verdict)
}

// printRaw writes the unscaled medians behind a timed run's metrics and
// the reference kernel's median time, as comment lines.
func printRaw(w io.Writer, raw map[string]float64, kind refKind) {
	fmt.Fprintf(w, "# host reference kernel %.1f us (nominal %.1f us); unscaled:", raw["host_ref_us"], float64(refNominal[kind].Nanoseconds())/1e3)
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %s=%.6g", d.Name, raw[d.Name])
	}
	fmt.Fprintln(w)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
