package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// q1Rows is q1_scan's table size: 16 default segments, 116 MB encoded,
// larger than the 105 MiB L3 of the reference machine.
const q1Rows = 16 << 20

// traceSpanCap bounds the per-unit span buffer of a traced scan: a 1M-row
// unit of 256 batches records about seven spans per batch.
const traceSpanCap = 4096

// runQ1Scan is the paper's headline: TPC-H Q1 prepared once and run
// back-to-back by one client with the engine's default fan-out.
func runQ1Scan(b *bench) error {
	b.calibrate()
	orc := newOracle()
	tbl, err := table.New(tpch.Schema())
	if err != nil {
		return err
	}
	ls, err := loadLineitem(tbl, b.seed, q1Rows, orc)
	if err != nil {
		return err
	}
	// Warm-up: the first query to see the loaded rows, Prepare and Run.
	// Nothing else runs between the last append and its return.
	ctx := context.Background()
	start := time.Now()
	p, err := engine.Prepare(tbl, tpch.Q1(), engine.Options{CostProfile: b.prof})
	if err != nil {
		return err
	}
	prepared := time.Now()
	res, err := p.Run(ctx)
	if err != nil {
		return err
	}
	b.visible(ls, time.Now())
	b.layer("engine.prepare_us", float64(prepared.Sub(start))/1e3, "us")
	b.loadMetrics(ls)
	b.noteStrategy("q1", p)
	want := orc.q1Rows()
	b.attempted++
	b.checkRows("q1 warm-up", res, want)
	b.setupDone()
	runtime.GC() // collect the load's garbage before timing

	var (
		lat      []float64
		results  []*engine.Result
		rows     int64
		acc      scanAcc
		untraced []float64 // traced run: latencies of the untraced half
	)
	need := minSamples(tailQuantile[b.workload])
	if b.traced {
		need = 0
	}
	window := time.Duration(b.seconds) * time.Second
	var gs *goroutineSampler
	if b.traced {
		gs = startGoroutineSampler()
	}
	gc0, cpu0, t0 := readGC(), cpuTime(), time.Now()
	for i := 0; time.Since(t0) < window || len(lat) < need; i++ {
		// The traced run spends its first half untraced, so the two
		// halves' medians give the tracing overhead.
		tracing := b.traced && time.Since(t0) >= window/2
		var st engine.ScanStats
		start := time.Now()
		if tracing {
			tr := obs.NewScanTrace(traceSpanCap)
			id := b.spans.newID()
			res, st, err = p.RunTraced(ctx, tr)
			d := time.Since(start)
			b.spans.add(id, "engine.run", "", start, d)
			b.spans.traceScanSpans(id, start, tr)
			acc.addTrace(tr, st.RowsTotal, 1)
			lat = append(lat, float64(d)/1e6)
		} else {
			res, st, err = p.RunStats(ctx)
			d := float64(time.Since(start)) / 1e6
			if b.traced {
				untraced = append(untraced, d)
			} else {
				lat = append(lat, d)
			}
		}
		b.attempted++
		if err != nil {
			b.fail("q1 run %d: %v", i, err)
			continue
		}
		rows += st.RowsTotal
		acc.addStats(st, 1)
		results = append(results, res)
	}
	wall, cpu, gc1 := time.Since(t0), cpuTime()-cpu0, readGC()
	b.endToEnd("peak_rss_mb", peakRSSMB(), "MB")
	if b.traced && len(untraced) == 0 {
		return fmt.Errorf("traced run too short for an untraced half")
	}

	// Checks, outside the timed window: the first result against the
	// generator's totals, every later one identical to the first.
	if len(results) > 0 {
		b.checkRows("q1 first timed run", results[0], want)
		first := results[0].Format()
		for i, r := range results[1:] {
			if r.Format() != first {
				b.fail("q1 run %d differs from the first run", i+1)
			}
		}
	}

	b.storedBytes(tbl)
	if !b.traced {
		return b.queryMetrics(lat, rows, len(results), wall, cpu)
	}
	b.runtimeMetrics(gc1.since(gc0, gcSnapshot{}), len(results), gs.finish())
	b.scanMetrics(&acc)
	b.layer("obs.trace_overhead_ratio", div(median(lat), median(untraced)), "ratio")
	b.modelError(p)
	return nil
}

// noteStrategy prints the strategy labels the cost model chose for a
// query shape, so a strategy flip between runs is visible.
func (b *bench) noteStrategy(shape string, p *engine.Prepared) {
	plans, err := p.Explain()
	if err != nil {
		b.notef("strategy %s: explain failed: %v", shape, err)
		return
	}
	count := map[string]int{}
	var order []string
	for _, pl := range plans {
		label := pl.Strategy
		if pl.Eliminated {
			label = "eliminated"
		}
		if len(pl.PushedDomains) > 0 {
			label += fmt.Sprint(pl.PushedDomains)
		}
		if count[label] == 0 {
			order = append(order, label)
		}
		count[label]++
	}
	s := ""
	for _, l := range order {
		s += fmt.Sprintf(" %s×%d", l, count[l])
	}
	b.notef("strategy %s:%s", shape, s)
}

// checkRows counts one checked answer, failing it when it differs from
// want.
func (b *bench) checkRows(what string, res *engine.Result, want []engine.Row) {
	if ok, diff := sameRows(res, want); !ok {
		b.fail("%s: %s", what, diff)
	}
}

// loadMetrics reports a bulk load: ingest throughput and the table
// layer's append and seal times.
func (b *bench) loadMetrics(ls loadStats) {
	b.endToEnd("ingest_rows_per_s", float64(ls.rows)/ls.appendTime.Seconds(), "1/s")
	b.appendMetrics(ls.calls)
}

// storedBytes reports the serialized size of the table per row. It runs
// after the timed window, so no time figure includes it.
func (b *bench) storedBytes(tbl *table.Table) {
	n, err := tbl.WriteTo(io.Discard)
	if err != nil {
		b.fail("serialize: %v", err)
		return
	}
	b.endToEnd("stored_bytes_per_row", float64(n)/float64(tbl.Rows()), "B")
}

// appendMetrics reports table.AppendColumns cost: microseconds per
// thousand rows over the calls that sealed nothing, and the median
// duration of the calls that sealed a segment.
func (b *bench) appendMetrics(calls []appendCall) {
	var plain, seal []float64
	for _, c := range calls {
		if c.sealed {
			seal = append(seal, float64(c.dur)/1e6)
		} else {
			plain = append(plain, float64(c.dur)/1e3/float64(c.rows)*1000)
		}
	}
	b.layer("table.append_us_per_krow", median(plain), "us")
	b.layer("table.seal_ms", median(seal), "ms")
}

// visible reports visible_p50_ms for a bulk load: the time from the start
// of its last append to the return of the first query that saw the rows
// (at seen). Only the Flush and that query run in between. Earlier
// appends are followed by the generation of later rows, which is the
// benchmark's own work.
func (b *bench) visible(ls loadStats, seen time.Time) {
	last := ls.calls[len(ls.calls)-1]
	b.endToEnd("visible_p50_ms", float64(seen.Sub(last.start))/1e6, "ms")
}

// queryMetrics reports the end-to-end query metrics of a timed window.
func (b *bench) queryMetrics(lat []float64, rows int64, ok int, wall, cpu time.Duration) error {
	p50, tail, err := b.latencyReport(lat)
	if err != nil {
		return err
	}
	b.endToEnd("latency_p50_ms", p50, "ms")
	b.endToEnd("latency_tail_ms", tail, "ms")
	b.endToEnd("queries_per_s", float64(ok)/wall.Seconds(), "1/s")
	b.endToEnd("rows_per_s", float64(rows)/wall.Seconds(), "1/s")
	b.endToEnd("core_cycles_per_row", coreCyclesPerRow(cpu, rows), "cycles")
	b.notef("window: %.3f s wall, %.3f s cpu, %d rows scanned", wall.Seconds(), cpu.Seconds(), rows)
	return nil
}

// runtimeMetrics reports the Go runtime's work over the timed window, d
// being the growth of its counters: GC cycles and pauses, and the
// process's allocations per query.
func (b *bench) runtimeMetrics(d gcSnapshot, queries, goroutines int) {
	b.layer("runtime.gc_cycles", float64(d.numGC), "count")
	b.layer("runtime.gc_pause_total_ms", float64(d.pauseTotal)/1e6, "ms")
	b.layer("engine.allocs_per_query", ratio(int64(d.mallocs), int64(queries)), "count")
	b.layer("engine.alloc_bytes_per_query", ratio(int64(d.allocBytes), int64(queries)), "B")
	b.layer("engine.goroutines_peak", float64(goroutines), "count")
}

// modelError runs Q1 under EXPLAIN ANALYZE and reports the cost model's
// row-weighted error, |predicted − measured| / measured, over the phases
// it predicts.
func (b *bench) modelError(p *engine.Prepared) {
	rep, err := p.ExplainAnalyze(context.Background())
	if err != nil {
		b.fail("explain analyze: %v", err)
		return
	}
	var diff, meas float64
	for _, m := range rep.Model {
		diff += abs(m.PredictedCyclesPerRow-m.MeasuredCyclesPerRow) * float64(m.Rows)
		meas += m.MeasuredCyclesPerRow * float64(m.Rows)
		b.notef("model %s: predicted %.2f, measured %.2f cycles/row", m.Phase, m.PredictedCyclesPerRow, m.MeasuredCyclesPerRow)
	}
	if meas > 0 {
		b.layer("costmodel.q1_model_error", diff/meas, "ratio")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
