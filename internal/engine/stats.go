package engine

import (
	"fmt"
	"strings"

	"bipie/internal/agg"
	"bipie/internal/sel"
)

// ScanStats records what a scan actually did: how many segments were
// eliminated by metadata, which selection method each batch chose from its
// measured selectivity, and which aggregation strategy each segment ran.
// It makes the paper's runtime adaptivity (§3: per-segment strategy,
// per-batch selection) observable and testable. Prepared.RunStats and
// Prepared.RunTraced return one per run; per-phase cycle attribution lives
// in the ScanTrace a RunTraced caller passes in.
type ScanStats struct {
	// SegmentsScanned and SegmentsEliminated partition the segment list.
	SegmentsScanned    int
	SegmentsEliminated int
	// Batches counts processed batch windows (skipped all-rejected batches
	// included).
	Batches int64
	// NoSelection counts batches processed whole: no filter, or a filter
	// that kept every row.
	NoSelection int64
	// Gather, Compact, SpecialGroup count batches per chosen method.
	Gather, Compact, SpecialGroup int64
	// EmptyBatches counts batches whose filter rejected every row,
	// zone-map skips included.
	EmptyBatches int64
	// BatchesSkipped counts batches skipped whole because a pushed
	// conjunct's zone map proved no row can match — batch-granularity
	// elimination, resolved from metadata before any kernel ran.
	BatchesSkipped int64
	// PackedKernelBatches counts batches where at least one pushed
	// conjunct ran a packed-domain compare kernel (no unpack).
	PackedKernelBatches int64
	// RLEFilterBatches and DictFilterBatches count batches where at least
	// one pushed conjunct evaluated in the RLE run domain or in
	// dictionary-code space, respectively — the per-encoding analogue of
	// PackedKernelBatches.
	RLEFilterBatches  int64
	DictFilterBatches int64
	// RunSpanBatches counts batches that ran the fully encoded span
	// pipeline: filter and sums both resolved at run granularity, no row
	// ever materialized. RunSkippedRows totals the rows those batches
	// discarded at run granularity without decoding them.
	RunSpanBatches int64
	RunSkippedRows int64
	// SelectivityHist buckets every processed batch by measured
	// selectivity: bucket i covers [i*10%, (i+1)*10%), except the last,
	// which includes 100%. Zone-skipped batches land in bucket 0.
	SelectivityHist [SelBuckets]int64
	// RowsTotal and RowsSelected measure the scan's overall selectivity.
	RowsTotal    int64
	RowsSelected int64
	// Strategies counts scan units per aggregation strategy (a segment
	// split across workers counts once per unit).
	Strategies map[string]int
}

// SelBuckets is the number of SelectivityHist buckets.
const SelBuckets = 10

// AvgSelectivity returns the scan's measured row survival rate in [0, 1];
// a scan that saw no rows reports 0 rather than dividing by zero — an
// empty scan selected nothing, and the finite answer keeps Format (and
// anything else doing arithmetic on the rate) free of NaN/Inf.
func (s *ScanStats) AvgSelectivity() float64 {
	if s.RowsTotal == 0 {
		return 0
	}
	return float64(s.RowsSelected) / float64(s.RowsTotal)
}

// merge folds one scan unit's local counters in.
func (s *ScanStats) merge(u *unitStats, strategy agg.Strategy) {
	s.Batches += u.batches
	s.NoSelection += u.noSelection
	s.Gather += u.gather
	s.Compact += u.compact
	s.SpecialGroup += u.special
	s.EmptyBatches += u.empty
	s.BatchesSkipped += u.zoneSkipped
	s.PackedKernelBatches += u.packed
	s.RLEFilterBatches += u.rleRun
	s.DictFilterBatches += u.dict
	s.RunSpanBatches += u.spanBatches
	s.RunSkippedRows += u.runSkipped
	for i := range u.selHist {
		s.SelectivityHist[i] += u.selHist[i]
	}
	s.RowsTotal += u.rowsTotal
	s.RowsSelected += u.rowsSelected
	if s.Strategies == nil {
		s.Strategies = make(map[string]int)
	}
	s.Strategies[strategy.String()]++
}

// Format renders the stats for the demo tools.
func (s *ScanStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "segments: %d scanned, %d eliminated\n", s.SegmentsScanned, s.SegmentsEliminated)
	fmt.Fprintf(&b, "batches:  %d total — %d unselected, %d gather, %d compact, %d special-group, %d empty\n",
		s.Batches, s.NoSelection, s.Gather, s.Compact, s.SpecialGroup, s.EmptyBatches)
	if s.BatchesSkipped > 0 || s.PackedKernelBatches > 0 || s.RLEFilterBatches > 0 || s.DictFilterBatches > 0 {
		fmt.Fprintf(&b, "encoded:  %d batches zone-skipped, %d on packed kernels, %d rle-run, %d dict-code\n",
			s.BatchesSkipped, s.PackedKernelBatches, s.RLEFilterBatches, s.DictFilterBatches)
	}
	if s.RunSpanBatches > 0 {
		fmt.Fprintf(&b, "rundom:   %d batches filtered and summed at run granularity, %d rows never decoded\n",
			s.RunSpanBatches, s.RunSkippedRows)
	}
	// AvgSelectivity is 0 (not NaN) for a zero-row scan, so the rows line
	// renders unconditionally and stays finite.
	fmt.Fprintf(&b, "rows:     %d of %d selected (%.1f%%)\n",
		s.RowsSelected, s.RowsTotal, 100*s.AvgSelectivity())
	if s.RowsTotal > 0 {
		fmt.Fprintf(&b, "selhist: ")
		for _, c := range s.SelectivityHist {
			fmt.Fprintf(&b, " %d", c)
		}
		b.WriteString("\n")
	}
	var strategies []string
	for name, n := range s.Strategies {
		strategies = append(strategies, fmt.Sprintf("%s×%d", name, n))
	}
	if len(strategies) > 0 {
		fmt.Fprintf(&b, "strategy: %s\n", strings.Join(strategies, ", "))
	}
	return b.String()
}

// unitStats is the per-scan-unit counter block, merged by the scan driver
// once the unit finishes, so the hot loop touches no shared state.
type unitStats struct {
	batches      int64
	noSelection  int64
	gather       int64
	compact      int64
	special      int64
	empty        int64
	zoneSkipped  int64
	packed       int64
	rleRun       int64
	dict         int64
	spanBatches  int64
	runSkipped   int64
	selHist      [SelBuckets]int64
	rowsTotal    int64
	rowsSelected int64
}

// noteFlags records which encoded-domain paths contributed to a batch's
// filter; one batch can set several (a conjunction over mixed encodings).
type noteFlags uint8

const (
	flagPacked noteFlags = 1 << iota // packed-domain SWAR compare ran
	flagRLERun                       // RLE run-domain span evaluation ran
	flagDict                         // dict-code-space filter ran
)

// note records a processed batch's outcome. n is positive: processBatch
// returns before counting an empty batch window.
func (u *unitStats) note(n, selected int, method sel.Method, whole bool, flags noteFlags) {
	u.batches++
	u.rowsTotal += int64(n)
	u.rowsSelected += int64(selected)
	if flags&flagPacked != 0 {
		u.packed++
	}
	if flags&flagRLERun != 0 {
		u.rleRun++
	}
	if flags&flagDict != 0 {
		u.dict++
	}
	bucket := selected * SelBuckets / n
	if bucket >= SelBuckets {
		bucket = SelBuckets - 1
	}
	u.selHist[bucket]++
	switch {
	case selected == 0:
		u.empty++
	case whole:
		u.noSelection++
	case method == sel.MethodGather:
		u.gather++
	case method == sel.MethodCompact:
		u.compact++
	default:
		u.special++
	}
}

// noteSkipped records a batch resolved whole from metadata, without any
// kernel running: zone reports whether a zone map (rather than plan-level
// clamping) proved the skip.
func (u *unitStats) noteSkipped(n int, zone bool) {
	u.batches++
	u.rowsTotal += int64(n)
	u.empty++
	u.selHist[0]++
	if zone {
		u.zoneSkipped++
	}
}

// noteSpans records a batch resolved entirely on the run-domain span path.
// Span batches never choose a selection method — no row-level selection
// exists to classify — so the gather/compact/special partition is left
// untouched by design; they count under RunSpanBatches instead.
func (u *unitStats) noteSpans(n, selected int) {
	u.batches++
	u.rowsTotal += int64(n)
	u.rowsSelected += int64(selected)
	u.rleRun++
	u.spanBatches++
	u.runSkipped += int64(n - selected)
	bucket := selected * SelBuckets / n
	if bucket >= SelBuckets {
		bucket = SelBuckets - 1
	}
	u.selHist[bucket]++
	if selected == 0 {
		u.empty++
	}
}
