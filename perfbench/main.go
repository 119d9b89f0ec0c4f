// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed time, checks every answer against an oracle
// outside the timed window, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call into a layer and reports the
// per-layer metrics instead. See README.md for the workloads and the map
// from each per-layer metric to the end-to-end metric it should move.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload q1_scan --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"bipie/internal/costmodel"
	"bipie/internal/perfstat"
)

// bench is one workload run: its settings, the pinned cost model, and the
// report being built.
type bench struct {
	workload string
	seed     int64
	seconds  int
	traced   bool

	start      time.Time // of the process
	setupStart time.Time // of the current set-up
	prof       *costmodel.Profile

	spans *spanLog // nil unless traced

	attempted, failed int
	failures          []string
	notes             []string
	// Every measurement of a metric is kept; the report gives the median.
	e2e    map[string]*samples
	layers map[string]*samples
}

// samples are the measurements of one metric in one run.
type samples struct {
	vals []float64
	unit string
}

// setupRuns is how many times serve_mix and ingest_mixed set up in one
// run; the set-up metrics report the median. q1_scan's 16M-row load is
// too long to repeat and runs once.
const setupRuns = 3

// endToEndMetrics are reported by every workload's untraced run, in
// BENCHMARK.json order.
var endToEndMetrics = []string{
	"setup_s", "latency_p50_ms", "latency_tail_ms", "queries_per_s", "rows_per_s",
	"core_cycles_per_row", "ingest_rows_per_s", "visible_p50_ms", "stored_bytes_per_row", "peak_rss_mb",
}

// layerMetrics are reported by every workload's traced run, with their
// units; a layer the workload never calls reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"sql.parse_us", "us"},
	{"serve.queue_wait_p50_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"serve.plan_us", "us"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"serve.overhead_us", "us"},
	{"serve.exec_share", "ratio"},
	{"engine.prepare_us", "us"},
	{"engine.units_per_query", "count"},
	{"engine.unit_skew", "ratio"},
	{"engine.allocs_per_query", "count"},
	{"engine.alloc_bytes_per_query", "B"},
	{"engine.goroutines_peak", "count"},
	{"engine.selectivity", "ratio"},
	{"engine.batches_skipped_ratio", "ratio"},
	{"engine.packed_batch_ratio", "ratio"},
	{"engine.dict_batch_ratio", "ratio"},
	{"engine.span_batch_ratio", "ratio"},
	{"scan.plan_cpr", "cycles/row"},
	{"scan.zone_map_cpr", "cycles/row"},
	{"scan.encoded_filter_cpr", "cycles/row"},
	{"scan.decode_cpr", "cycles/row"},
	{"scan.selection_cpr", "cycles/row"},
	{"scan.group_map_cpr", "cycles/row"},
	{"scan.aggregate_cpr", "cycles/row"},
	{"scan.merge_cpr", "cycles/row"},
	{"scan.coverage", "ratio"},
	{"table.append_us_per_krow", "us"},
	{"table.seal_ms", "ms"},
	{"table.snapshot_encode_ms", "ms"},
	{"costmodel.calibrate_s", "s"},
	{"costmodel.q1_model_error", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
}

var workloads = map[string]func(*bench) error{
	"q1_scan":      runQ1Scan,
	"serve_mix":    runServeMix,
	"ingest_mixed": runIngestMixed,
}

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "workload to run: q1_scan, serve_mix or ingest_mixed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 24, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload q1_scan|serve_mix|ingest_mixed, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		start: start, setupStart: start, e2e: map[string]*samples{}, layers: map[string]*samples{},
	}
	if b.traced {
		b.spans = &spanLog{base: start}
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if b.spans != nil {
		path, err := b.spans.write(b.workload, b.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		b.notef("spans: %d written to %s", len(b.spans.spans), path)
		self := b.spans.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b.notef("self time p50 %-16s %.1f us", n, self[n])
		}
	}
	if !b.report() {
		os.Exit(1)
	}
}

// calibrate fits the cost model for this set-up and pins it: every
// Prepare gets it through Options.CostProfile, and it is installed as the
// process-wide profile so nothing reads or writes the per-user profile
// cache or honours BIPIE_COSTMODEL.
func (b *bench) calibrate() {
	t := time.Now()
	b.prof = costmodel.Calibrate()
	b.layer("costmodel.calibrate_s", time.Since(t).Seconds(), "s")
	costmodel.SetActive(b.prof)
}

// beginSetup starts timing a set-up (the first starts at process start).
func (b *bench) beginSetup() {
	if b.e2e["setup_s"] != nil {
		b.setupStart = time.Now()
	}
}

// setupDone ends a set-up: setup_s runs from its start to the first
// timed operation.
func (b *bench) setupDone() {
	b.endToEnd("setup_s", time.Since(b.setupStart).Seconds(), "s")
}

func (b *bench) endToEnd(name string, v float64, unit string) { add(b.e2e, name, v, unit) }

func (b *bench) layer(name string, v float64, unit string) { add(b.layers, name, v, unit) }

func add(m map[string]*samples, name string, v float64, unit string) {
	s := m[name]
	if s == nil {
		s = &samples{unit: unit}
		m[name] = s
	}
	s.vals = append(s.vals, v)
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fail records a wrong or failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// report prints the human-readable lines and the final JSON line, and
// reports whether every answer was correct.
func (b *bench) report() bool {
	correct := b.failed == 0
	b.notef("failed_ratio: %g (%d failed of %d attempted)", ratio(int64(b.failed), int64(b.attempted)), b.failed, b.attempted)
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v; cycles at %.0f MHz (perfstat.Hz)\n", b.workload, b.seed, b.seconds, b.traced, perfstat.Hz()/1e6)
	for _, n := range b.notes {
		fmt.Println("# " + n)
	}
	for _, f := range b.failures {
		fmt.Println("# FAILED: " + f)
	}
	metrics := map[string]metric{}
	if b.traced {
		for _, m := range layerMetrics {
			v := metric{Unit: m.unit}
			if s := b.layers[m.name]; s != nil {
				v.Value = median(s.vals)
			}
			metrics[m.name] = v
		}
	} else {
		for _, name := range endToEndMetrics {
			s := b.e2e[name]
			if s == nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", b.workload, name)
				return false
			}
			metrics[name] = metric{Value: median(s.vals), Unit: s.unit}
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-32s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Println(string(out))
	return correct && b.attempted > 0
}
