package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseStrings(t *testing.T) {
	want := []string{
		"plan", "zone-map", "encoded-filter", "decode",
		"selection", "group-map", "aggregate", "merge",
	}
	if int(NumPhases) != len(want) {
		t.Fatalf("NumPhases = %d, want %d", NumPhases, len(want))
	}
	for p := Phase(0); p < NumPhases; p++ {
		if got := p.String(); got != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want[p])
		}
	}
	if got := NumPhases.String(); got != "unknown" {
		t.Errorf("out-of-range phase = %q, want unknown", got)
	}
}

func TestPhaseStatCyclesPerRowZeroRows(t *testing.T) {
	s := PhaseStat{Nanos: 12345, Rows: 0, Calls: 3}
	if got := s.CyclesPerRow(); got != 0 {
		t.Fatalf("zero-row CyclesPerRow = %v, want 0", got)
	}
	s.Rows = 100
	if got := s.CyclesPerRow(); got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("CyclesPerRow = %v, want finite positive", got)
	}
}

func TestTracerAccumulatesPhases(t *testing.T) {
	tr := NewScanTrace(0)
	tr.BeginScan()
	u := tr.StartUnit("Scalar")
	t0 := u.Begin()
	time.Sleep(time.Millisecond)
	u.End(PhaseDecode, t0, 4096)
	t1 := u.Begin()
	u.End(PhaseDecode, t1, 4096)
	ph := u.Phases()
	d := ph[PhaseDecode]
	if d.Calls != 2 || d.Rows != 8192 {
		t.Fatalf("decode stat = %+v, want 2 calls over 8192 rows", d)
	}
	if d.Nanos < int64(time.Millisecond) {
		t.Fatalf("decode nanos = %d, want >= 1ms", d.Nanos)
	}
	if ph[PhaseAggregate].Calls != 0 {
		t.Fatalf("untouched phase recorded calls: %+v", ph[PhaseAggregate])
	}
}

func TestTracerSpanCapDrops(t *testing.T) {
	tr := NewScanTrace(2)
	tr.BeginScan()
	u := tr.StartUnit("Sort")
	u.SetBatch(4096)
	for i := 0; i < 5; i++ {
		u.End(PhaseSelection, u.Begin(), 10)
	}
	tr.EndUnit(u, 1000, 50)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (cap)", len(spans))
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	for _, sp := range spans {
		if sp.Phase != PhaseSelection || sp.Unit != 0 || sp.RowStart != 4096 {
			t.Fatalf("unexpected span %+v", sp)
		}
	}
}

func TestTracerZeroCapRecordsNoSpans(t *testing.T) {
	tr := NewScanTrace(0)
	tr.BeginScan()
	u := tr.StartUnit("Scalar")
	for i := 0; i < 100; i++ {
		u.End(PhaseAggregate, u.Begin(), 1)
	}
	tr.EndUnit(u, 1, 100)
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("spanCap=0 captured %d spans", n)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("spanCap=0 counted %d dropped spans; capture is off, not overflowing", tr.Dropped())
	}
	if got := tr.Phases()[PhaseAggregate].Calls; got != 100 {
		t.Fatalf("phase totals lost without span capture: calls = %d", got)
	}
}

func TestScanTraceMergeAndGroups(t *testing.T) {
	tr := NewScanTrace(16)
	tr.BeginScan()
	u0 := tr.StartUnit("Scalar")
	u0.End(PhaseAggregate, u0.Begin(), 100)
	u1 := tr.StartUnit("Sort")
	u1.End(PhaseAggregate, u1.Begin(), 200)
	u2 := tr.StartUnit("Scalar")
	u2.End(PhaseDecode, u2.Begin(), 300)
	tr.EndUnit(u0, 10, 100)
	tr.EndUnit(u1, 20, 200)
	tr.EndUnit(u2, 30, 300)
	tr.Add(PhaseMerge, 5*time.Microsecond, 0)

	if tr.Units() != 3 {
		t.Fatalf("units = %d, want 3", tr.Units())
	}
	if tr.UnitNanos() != 60 {
		t.Fatalf("unitNanos = %d, want 60", tr.UnitNanos())
	}
	ph := tr.Phases()
	if ph[PhaseAggregate].Rows != 300 || ph[PhaseAggregate].Calls != 2 {
		t.Fatalf("aggregate merge = %+v", ph[PhaseAggregate])
	}
	if ph[PhaseMerge].Calls != 1 || ph[PhaseMerge].Nanos != 5000 {
		t.Fatalf("driver merge = %+v", ph[PhaseMerge])
	}

	groups := tr.Groups()
	if len(groups) != 2 || groups[0].Label != "Scalar" || groups[1].Label != "Sort" {
		t.Fatalf("groups = %+v, want [Scalar Sort]", groups)
	}
	if g := groups[0]; g.Units != 2 || g.Rows != 400 || g.Nanos != 40 {
		t.Fatalf("Scalar group = %+v", g)
	}
	if g := groups[1]; g.Units != 1 || g.Rows != 200 || g.Nanos != 20 {
		t.Fatalf("Sort group = %+v", g)
	}

	// The driver span carries Unit -1 so trace viewers put it on its own
	// track.
	var driverSpans int
	for _, sp := range tr.Spans() {
		if sp.Unit == -1 {
			driverSpans++
		}
	}
	if driverSpans != 1 {
		t.Fatalf("driver spans = %d, want 1", driverSpans)
	}
}

func TestBeginScanResets(t *testing.T) {
	tr := NewScanTrace(8)
	tr.BeginScan()
	u := tr.StartUnit("Scalar")
	u.End(PhaseDecode, u.Begin(), 100)
	tr.EndUnit(u, 10, 100)
	tr.Add(PhasePlan, time.Microsecond, 0)

	tr.BeginScan()
	if tr.Units() != 0 || tr.UnitNanos() != 0 || tr.Dropped() != 0 {
		t.Fatal("BeginScan left unit accounting behind")
	}
	if len(tr.Spans()) != 0 {
		t.Fatal("BeginScan left spans behind")
	}
	if ph := tr.Phases(); ph != ([NumPhases]PhaseStat{}) {
		t.Fatalf("BeginScan left phase totals behind: %+v", ph)
	}
	if len(tr.Groups()) != 0 {
		t.Fatal("BeginScan left unit groups behind")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewScanTrace(8)
	tr.BeginScan()
	u := tr.StartUnit("Scalar")
	u.SetBatch(8192)
	u.End(PhaseDecode, u.Begin(), 100)
	tr.EndUnit(u, 10, 100)
	tr.Add(PhaseMerge, time.Microsecond, 0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 2 {
		t.Fatalf("trace doc = %+v", doc)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name] = ev.TID
		if ev.Ph != "X" || ev.PID != 1 {
			t.Fatalf("event %+v: want ph=X pid=1", ev)
		}
	}
	// Unit 0 renders as tid 1; the driver-side merge as tid 0.
	if byName["decode"] != 1 || byName["merge"] != 0 {
		t.Fatalf("thread layout = %v, want decode on tid 1 and merge on tid 0", byName)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "decode" && ev.Args["row_start"] != float64(8192) {
			t.Fatalf("unit span args = %v, want row_start 8192", ev.Args)
		}
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge = %v, want -1", g.Value())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0001, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	// v <= bound lands in that bucket: {0.5, 1} | {1.0001, 10} | {99, 100} |
	// overflow {101, 1e9}.
	want := []int64{2, 2, 2, 2}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if math.Abs(h.Sum()-(0.5+1+1.0001+10+99+100+101+1e9)) > 1e-6 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	if h.Count() != 1 || math.IsNaN(h.Sum()) {
		t.Fatalf("NaN leaked into histogram: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramSortsBounds(t *testing.T) {
	h := newHistogram([]float64{100, 1, 10})
	got := h.Bounds()
	if got[0] != 1 || got[1] != 10 || got[2] != 100 {
		t.Fatalf("bounds not sorted: %v", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0.1, 0.1, 3)
	if len(lin) != 3 || lin[0] != 0.1 || math.Abs(lin[2]-0.3) > 1e-12 {
		t.Fatalf("linear = %v", lin)
	}
	exp := ExpBuckets(1, 2, 4)
	if len(exp) != 4 || exp[0] != 1 || exp[3] != 8 {
		t.Fatalf("exp = %v", exp)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same-name counters are distinct instances")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same-name gauges are distinct instances")
	}
	h := r.Histogram("h", []float64{1, 2})
	if r.Histogram("h", []float64{99}) != h {
		t.Fatal("same-name histograms are distinct instances")
	}
	if got := h.Bounds(); len(got) != 2 {
		t.Fatalf("second Histogram call replaced bounds: %v", got)
	}
	if Default() != Default() {
		t.Fatal("Default registry not a singleton")
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("scans").Add(7)
	r.Gauge("hz").Set(2.1e9)
	r.Histogram("sel", []float64{0.5}).Observe(0.25)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(snap) != 3 {
		t.Fatalf("snapshot keys = %d, want 3: %s", len(snap), buf.String())
	}
	if string(snap["scans"]) != "7" {
		t.Fatalf("scans = %s", snap["scans"])
	}
	var hist histSnapshot
	if err := json.Unmarshal(snap["sel"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 || hist.Sum != 0.25 || len(hist.Counts) != 2 || hist.Counts[0] != 1 {
		t.Fatalf("histogram snapshot = %+v", hist)
	}
	// encoding/json sorts map keys, so two snapshots of the same state are
	// byte-identical — the determinism /metrics diffs rely on.
	var buf2 bytes.Buffer
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("snapshot output is not deterministic")
	}
	if !strings.Contains(buf.String(), "\n  ") {
		t.Fatal("snapshot is not indented")
	}
}

// TestRegistryConcurrent hammers get-or-create and every metric kind from
// many goroutines; run with -race it pins the registry's locking.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{100, 500, 900}).Observe(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestScanTraceConcurrentUnits mirrors the engine's parallel scan: several
// goroutines each run their own Tracer and merge back into one ScanTrace.
func TestScanTraceConcurrentUnits(t *testing.T) {
	tr := NewScanTrace(4)
	tr.BeginScan()
	const units = 8
	var wg sync.WaitGroup
	for i := 0; i < units; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := tr.StartUnit("Scalar")
			for b := 0; b < 10; b++ {
				u.SetBatch(b * 4096)
				u.End(PhaseAggregate, u.Begin(), 4096)
			}
			tr.EndUnit(u, 100, 10*4096)
		}()
	}
	wg.Wait()
	if g := tr.Groups(); tr.Units() != units || len(g) != 1 || g[0].Rows != units*10*4096 {
		t.Fatalf("units/groups = %d/%+v", tr.Units(), g)
	}
	if got := tr.Phases()[PhaseAggregate].Calls; got != units*10 {
		t.Fatalf("aggregate calls = %d, want %d", got, units*10)
	}
	if len(tr.Spans()) != units*4 || tr.Dropped() != units*6 {
		t.Fatalf("spans/dropped = %d/%d, want %d/%d", len(tr.Spans()), tr.Dropped(), units*4, units*6)
	}
}

// The hot-path methods must not allocate: Begin/End/SetBatch write into the
// buffer StartUnit preallocated.
func TestTracerHotPathAllocs(t *testing.T) {
	tr := NewScanTrace(1 << 16)
	tr.BeginScan()
	u := tr.StartUnit("Scalar")
	allocs := testing.AllocsPerRun(1000, func() {
		u.SetBatch(0)
		u.End(PhaseDecode, u.Begin(), 4096)
	})
	if allocs != 0 {
		t.Fatalf("tracer hot path allocates: %v allocs/op", allocs)
	}
}

// Gauge.Add is the serving layer's admission counter: under concurrent
// +1/-1 traffic no increment may be lost, and the returned value is the
// post-add count.
func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	if got := g.Add(2); got != 2 {
		t.Fatalf("Add(2) returned %v, want 2", got)
	}
	if got := g.Add(-2); got != 0 {
		t.Fatalf("Add(-2) returned %v, want 0", got)
	}
	const workers, rounds = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g.Add(1)
				g.Add(-1)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != workers*rounds {
		t.Fatalf("gauge = %v after concurrent adds, want %d", got, workers*rounds)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 10 observations spread 4 | 4 | 2 across the finite buckets.
	for i := 0; i < 4; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	h.Observe(30)
	h.Observe(35)
	// p50: rank 5 lands 1 into the second bucket (4 below it) → lower
	// edge 10 plus 1/4 of the bucket width.
	if got := h.Quantile(0.5); math.Abs(got-12.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 12.5", got)
	}
	// p100 interpolates to the top of the last occupied bucket.
	if got := h.Quantile(1); math.Abs(got-40) > 1e-9 {
		t.Fatalf("p100 = %v, want 40", got)
	}
	// Out-of-range q clamps rather than panicking.
	if got := h.Quantile(-3); got > h.Quantile(0.1) {
		t.Fatalf("q<0 = %v exceeds p10", got)
	}
	if got := h.Quantile(7); math.Abs(got-40) > 1e-9 {
		t.Fatalf("q>1 = %v, want 40", got)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(1e9) // all overflow
	}
	// The overflow bucket has no finite upper edge; the estimate clamps to
	// the last bound instead of inventing one.
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow p99 = %v, want clamp to 2", got)
	}
	var none Histogram // no bounds at all
	if got := none.Quantile(0.5); got != 0 {
		t.Fatalf("bound-less histogram quantile = %v, want 0", got)
	}
}
