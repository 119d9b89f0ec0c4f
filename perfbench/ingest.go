package main

import (
	"bytes"
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

const (
	// ingestBaseRows is the sealed base each cycle starts from: one
	// default segment.
	ingestBaseRows = 1 << 20
	// ingestBatchRows rows per append: eight appends fill a segment.
	ingestBatchRows = 1 << 17
	// ingestRounds appends per cycle, 3.5M rows: three seals.
	ingestRounds = 28
	// ingestQueries queries follow every append: Q1, then the
	// per-returnflag count/sums three times. The cheap query is three in
	// four samples, so the median falls inside its mode rather than in
	// the gap between the two queries' latencies.
	ingestQueries = 4
)

// ingestRound is what one round recorded, checked after the cycle.
type ingestRound struct {
	results []*engine.Result
	wantQ1  []engine.Row
	wantFlg []engine.Row
}

// runIngestMixed interleaves appends with queries on one goroutine
// (table writes are not safe against concurrent readers). A cycle starts
// from a 1M-row sealed base and runs a fixed schedule: ingestRounds times
// an append of ingestBatchRows rows followed by ingestQueries queries.
// Cycles repeat until the timed work reaches the window; a traced run is
// one untraced and one traced cycle. Each timed span runs from an
// append's start to the return of its last query; batch generation and
// result checks stay outside it.
func runIngestMixed(b *bench) error {
	var (
		baseOrc   *oracle
		baseBytes bytes.Buffer
	)
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // drop the previous set-up before the next
		b.beginSetup()
		b.calibrate()
		baseOrc = newOracle()
		base, err := table.New(tpch.Schema())
		if err != nil {
			return err
		}
		if _, err := loadLineitem(base, b.seed, ingestBaseRows, baseOrc); err != nil {
			return err
		}
		baseBytes.Reset()
		if _, err := base.WriteTo(&baseBytes); err != nil {
			return err
		}
		b.setupDone()
	}
	runtime.GC()

	var (
		lat, visible, snapshot, stored []float64
		prepare                        []float64
		calls                          []appendCall
		timed, cpu                     time.Duration
		appended, scanned              int64
		queries                        int
		acc                            scanAcc
		untraced                       []float64
		gs                             *goroutineSampler
		gcTimed                        gcSnapshot // traced: counter growth inside timed spans
		lastQ1                         *engine.Prepared
	)
	ctx := context.Background()
	window := time.Duration(b.seconds) * time.Second
	bt := newBatch(ingestBatchRows) // refilled every round; AppendColumns copies
	for cycle := 0; ; cycle++ {
		tbl, err := table.Load(bytes.NewReader(baseBytes.Bytes()))
		if err != nil {
			return fmt.Errorf("reload base: %w", err)
		}
		orc := baseOrc.clone()
		t := time.Now()
		q1, err := engine.Prepare(tbl, tpch.Q1(), engine.Options{CostProfile: b.prof})
		if err != nil {
			return err
		}
		flags, err := engine.Prepare(tbl, flagQuery(), engine.Options{CostProfile: b.prof})
		if err != nil {
			return err
		}
		prepare = append(prepare, float64(time.Since(t))/2e3)
		if cycle == 0 {
			b.noteStrategy("q1", q1)
			b.noteStrategy("flag", flags)
		}
		lastQ1 = q1
		var rounds []ingestRound
		for r := 0; r < ingestRounds; r++ {
			bt.fill(chunkSeed(b.seed, 1, r), int64(ingestBaseRows+r*ingestBatchRows))
			orc.add(bt)
			round := ingestRound{wantQ1: orc.q1Rows(), wantFlg: orc.flagRows()}
			if cycle == 0 && r == 0 && b.traced {
				gs = startGoroutineSampler()
			}
			// The traced run's first cycle stays untraced, so the two
			// cycles' medians give the tracing overhead.
			tracing := b.traced && cycle == 1
			var ls loadStats
			var gc0 gcSnapshot
			if b.traced {
				gc0 = readGC()
			}
			cpu0 := cpuTime()
			if err := appendTimed(tbl, bt, &ls); err != nil {
				return err
			}
			c := ls.calls[0]
			calls = append(calls, c)
			appended += int64(bt.n)
			end := c.start.Add(c.dur)
			for k := 0; k < ingestQueries; k++ {
				p := flags
				if k == 0 {
					p = q1
				}
				start := time.Now()
				var res *engine.Result
				var st engine.ScanStats
				if tracing {
					tr := obs.NewScanTrace(traceSpanCap)
					id := b.spans.newID()
					res, st, err = p.RunTraced(ctx, tr)
					d := time.Since(start)
					b.spans.add(id, "engine.run", "", start, d)
					b.spans.traceScanSpans(id, start, tr)
					acc.addTrace(tr, st.RowsTotal, 1)
					if k == 0 {
						snapshot = append(snapshot, float64(tr.Phases()[obs.PhasePlan].Nanos)/1e6)
					}
				} else {
					res, st, err = p.RunStats(ctx)
				}
				end = time.Now()
				d := float64(end.Sub(start)) / 1e6
				b.attempted++
				queries++
				round.results = append(round.results, res)
				if err != nil {
					b.fail("cycle %d round %d query %d: %v", cycle, r, k, err)
					continue
				}
				if b.traced && !tracing {
					untraced = append(untraced, d)
				} else {
					lat = append(lat, d)
				}
				if k == 0 {
					visible = append(visible, float64(end.Sub(c.start))/1e6)
				}
				scanned += st.RowsTotal
				acc.addStats(st, 1)
			}
			timed += end.Sub(c.start)
			cpu += cpuTime() - cpu0
			if b.traced {
				gcTimed = readGC().since(gc0, gcTimed)
			}
			rounds = append(rounds, round)
		}
		b.checkIngest(cycle, rounds)
		tbl.Flush()
		n, err := tbl.WriteTo(io.Discard)
		if err != nil {
			return err
		}
		stored = append(stored, float64(n)/float64(tbl.Rows()))
		// A traced run is one untraced cycle and one traced cycle.
		if (b.traced && cycle == 1) || (!b.traced && timed >= window) {
			break
		}
	}
	b.endToEnd("peak_rss_mb", peakRSSMB(), "MB")
	b.notef("ingest: %d rows appended over %d rounds; %d queries; %.3f s timed", appended, len(calls), queries, timed.Seconds())

	b.appendMetrics(calls)
	b.layer("engine.prepare_us", median(prepare), "us")
	if !b.traced {
		if err := b.queryMetrics(lat, scanned, len(lat), timed, cpu); err != nil {
			return err
		}
		b.endToEnd("ingest_rows_per_s", float64(appended)/timed.Seconds(), "1/s")
		b.endToEnd("visible_p50_ms", median(visible), "ms")
		b.endToEnd("stored_bytes_per_row", median(stored), "B")
		return nil
	}
	b.runtimeMetrics(gcTimed, queries, gs.finish())
	b.scanMetrics(&acc)
	b.layer("table.snapshot_encode_ms", median(snapshot), "ms")
	b.layer("obs.trace_overhead_ratio", div(median(lat), median(untraced)), "ratio")
	b.modelError(lastQ1)
	return nil
}

// checkIngest checks every query of a cycle against the running totals
// taken right after its round's append.
func (b *bench) checkIngest(cycle int, rounds []ingestRound) {
	for r, rd := range rounds {
		for k, res := range rd.results {
			if res == nil {
				continue // already counted as failed
			}
			want := rd.wantFlg
			if k == 0 {
				want = rd.wantQ1
			}
			if ok, diff := sameRows(res, want); !ok {
				b.fail("cycle %d round %d query %d: %s", cycle, r, k, diff)
			}
		}
	}
}
