package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/perfstat"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// coreCyclesPerRow is the paper's core-normalised unit: process CPU time
// converted to cycles at perfstat.Hz(), per scanned row.
func coreCyclesPerRow(cpu time.Duration, rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	return cpu.Seconds() * perfstat.Hz() / float64(rows)
}

// quantile returns the q-quantile of xs by nearest rank (xs need not be
// sorted) and how many samples lie strictly beyond that rank.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// median is quantile(xs, 0.5) without the support count.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// tailQuantile is the latency percentile each workload reports as
// latency_tail_ms: the highest one its run supports with at least ten
// samples beyond it (q1_scan p75, ingest_mixed p90, serve_mix p99).
var tailQuantile = map[string]float64{"q1_scan": 0.75, "ingest_mixed": 0.90, "serve_mix": 0.99}

// minSamples is the sample count a quantile needs for ten samples to lie
// beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(10 / (1 - q)))
}

// latencyReport adds the latency percentiles (ms) of lat to the report
// lines, each with its sample count, and returns p50 and the workload's
// tail percentile; the timed loops run until the tail is supported.
func (b *bench) latencyReport(lat []float64) (p50, tail float64, err error) {
	for _, q := range []float64{0.5, 0.75, 0.9, 0.99} {
		v, beyond := quantile(lat, q)
		if beyond < 10 {
			b.notef("latency_p%02.0f_ms: not supported (%d samples, %d beyond; needs %d samples)", q*100, len(lat), beyond, minSamples(q))
			continue
		}
		b.notef("latency_p%02.0f_ms: %.4f ms (%d samples, %d beyond)", q*100, v, len(lat), beyond)
	}
	p50 = median(lat)
	tail, beyond := quantile(lat, tailQuantile[b.workload])
	if beyond < 10 {
		return 0, 0, fmt.Errorf("latency_tail_ms: p%.0f has %d samples beyond it, fewer than 10", tailQuantile[b.workload]*100, beyond)
	}
	b.notef("latency_tail_ms is p%.0f", tailQuantile[b.workload]*100)
	return p50, tail, nil
}

// gcSnapshot holds the runtime counters the per-layer report diffs over
// the timed window.
type gcSnapshot struct {
	numGC      uint32
	pauseTotal uint64
	mallocs    uint64
	allocBytes uint64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{numGC: ms.NumGC, pauseTotal: ms.PauseTotalNs, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// since returns the counters' growth from g0 to g, added to acc.
func (g gcSnapshot) since(g0, acc gcSnapshot) gcSnapshot {
	return gcSnapshot{
		numGC:      acc.numGC + g.numGC - g0.numGC,
		pauseTotal: acc.pauseTotal + g.pauseTotal - g0.pauseTotal,
		mallocs:    acc.mallocs + g.mallocs - g0.mallocs,
		allocBytes: acc.allocBytes + g.allocBytes - g0.allocBytes,
	}
}

// goroutineSampler records the peak goroutine count until stopped.
type goroutineSampler struct {
	peak int // written by the sampler goroutine, read after done closes
	stop chan struct{}
	done chan struct{}
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			g.peak = max(g.peak, runtime.NumGoroutine())
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// finish stops the sampler, waits for it, and returns the peak.
func (g *goroutineSampler) finish() int {
	close(g.stop)
	<-g.done
	return g.peak
}

// span is one timed interval recorded by the traced run. Spans of one
// query share ID; Parent names the enclosing span ("" for a root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the process started
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps the traced run's spans in memory until exit.
type spanLog struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	nextID uint64
}

func (l *spanLog) newID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

func (l *spanLog) add(id uint64, name, parent string, start time.Time, dur time.Duration) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent, Start: int64(start.Sub(l.base)), Dur: int64(dur)})
	l.mu.Unlock()
}

// selfTimes returns, per span name, the median self time in microseconds:
// the span's duration minus the durations of its children (spans with the
// same ID naming it as parent).
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		id   uint64
		name string
	}
	child := map[key]int64{}
	for _, s := range l.spans {
		if s.Parent != "" {
			child[key{s.ID, s.Parent}] += s.Dur
		}
	}
	self := map[string][]float64{}
	for _, s := range l.spans {
		self[s.Name] = append(self[s.Name], float64(s.Dur-child[key{s.ID, s.Name}])/1e3)
	}
	out := map[string]float64{}
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

// write dumps the spans as JSON under .bench_build/traces in the working
// directory and returns the path.
func (l *spanLog) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	err = json.NewEncoder(f).Encode(l.spans)
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// traceScanSpans records what a traced scan did on the calling goroutine
// as children of the engine.run span that started at runStart: the plan
// resolve, the unit fan-out window, and the final partial merge. Those are
// the ScanTrace spans of unit -1, timed from the scan's start.
func (l *spanLog) traceScanSpans(id uint64, runStart time.Time, tr *obs.ScanTrace) {
	var planEnd, mergeStart int64 = 0, -1
	for _, s := range tr.Spans() {
		if s.Unit != -1 {
			continue
		}
		start := runStart.Add(time.Duration(s.Start))
		switch s.Phase {
		case obs.PhasePlan:
			l.add(id, "scan.plan", "engine.run", start, time.Duration(s.Dur))
			planEnd = s.Start + s.Dur
		case obs.PhaseMerge:
			l.add(id, "scan.merge", "engine.run", start, time.Duration(s.Dur))
			mergeStart = s.Start
		}
	}
	if mergeStart > planEnd {
		l.add(id, "scan.units", "engine.run", runStart.Add(time.Duration(planEnd)), time.Duration(mergeStart-planEnd))
	}
}

// unitSkew is the slowest scan unit's extent over the mean, from a traced
// scan's per-batch spans (a unit's extent runs from its first span's start
// to its last span's end).
func unitSkew(tr *obs.ScanTrace) float64 {
	lo, hi := map[int32]int64{}, map[int32]int64{}
	for _, s := range tr.Spans() {
		if s.Unit < 0 {
			continue
		}
		if v, ok := lo[s.Unit]; !ok || s.Start < v {
			lo[s.Unit] = s.Start
		}
		hi[s.Unit] = max(hi[s.Unit], s.Start+s.Dur)
	}
	if len(lo) == 0 {
		return 0
	}
	var sum, worst float64
	for u, start := range lo {
		ext := float64(hi[u] - start)
		sum += ext
		worst = max(worst, ext)
	}
	if sum == 0 {
		return 0
	}
	return worst / (sum / float64(len(lo)))
}

// scanAcc accumulates exact ScanStats counts and traced phase totals over
// many scans.
type scanAcc struct {
	rows, selected                       int64
	batches, skipped, packed, dict, span int64

	// From traced scans only: per-phase totals and the rows they cover,
	// in-unit phase time against summed unit wall time, units per scan,
	// and each scan's unit skew.
	phases         [obs.NumPhases]obs.PhaseStat
	phaseRows      int64
	unitPhaseNanos int64
	unitNanos      int64
	tracedScans    int64
	units          int64
	skews          []float64
}

// addStats folds one scan's statistics in, weighted by w (the number of
// requests the scan stands for).
func (a *scanAcc) addStats(st engine.ScanStats, w int64) {
	a.rows += w * st.RowsTotal
	a.selected += w * st.RowsSelected
	a.batches += w * st.Batches
	a.skipped += w * st.BatchesSkipped
	a.packed += w * st.PackedKernelBatches
	a.dict += w * st.DictFilterBatches
	a.span += w * st.RunSpanBatches
}

// addTrace folds one traced scan of rows rows in, weighted by w.
func (a *scanAcc) addTrace(tr *obs.ScanTrace, rows, w int64) {
	ph := tr.Phases()
	for p := range ph {
		a.phases[p].Nanos += w * ph[p].Nanos
		if obs.Phase(p) != obs.PhasePlan {
			a.unitPhaseNanos += w * ph[p].Nanos
		}
	}
	a.phaseRows += w * rows
	a.unitNanos += w * tr.UnitNanos()
	a.tracedScans += w
	a.units += w * int64(tr.Units())
	if s := unitSkew(tr); s > 0 {
		for i := int64(0); i < w; i++ {
			a.skews = append(a.skews, s)
		}
	}
}

func ratio(num, den int64) float64 { return div(float64(num), float64(den)) }

// div is num/den, or 0 when den is 0, keeping the JSON report finite.
func div(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phaseNames maps each scan phase to its per-layer metric.
var phaseNames = [obs.NumPhases]string{
	obs.PhasePlan: "scan.plan_cpr", obs.PhaseZoneMap: "scan.zone_map_cpr",
	obs.PhaseEncodedFilter: "scan.encoded_filter_cpr", obs.PhaseDecode: "scan.decode_cpr",
	obs.PhaseSelection: "scan.selection_cpr", obs.PhaseGroupMap: "scan.group_map_cpr",
	obs.PhaseAggregate: "scan.aggregate_cpr", obs.PhaseMerge: "scan.merge_cpr",
}

// scanMetrics renders the engine.* count ratios and the scan.* metrics:
// each phase in cycles per scanned row, and coverage, the in-unit phase
// sum over unit wall time.
func (b *bench) scanMetrics(a *scanAcc) {
	b.layer("engine.units_per_query", ratio(a.units, a.tracedScans), "count")
	b.layer("engine.unit_skew", median(a.skews), "ratio")
	b.layer("engine.selectivity", ratio(a.selected, a.rows), "ratio")
	b.layer("engine.batches_skipped_ratio", ratio(a.skipped, a.batches), "ratio")
	b.layer("engine.packed_batch_ratio", ratio(a.packed, a.batches), "ratio")
	b.layer("engine.dict_batch_ratio", ratio(a.dict, a.batches), "ratio")
	b.layer("engine.span_batch_ratio", ratio(a.span, a.batches), "ratio")
	for p, name := range phaseNames {
		cpr := 0.0
		if a.phaseRows > 0 {
			cpr = float64(a.phases[p].Nanos) / 1e9 * perfstat.Hz() / float64(a.phaseRows)
		}
		b.layer(name, cpr, "cycles/row")
	}
	b.layer("scan.coverage", ratio(a.unitPhaseNanos, a.unitNanos), "ratio")
}
