package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/serve"
	"bipie/internal/sql"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

const (
	// serveRows is serve_mix's table: one default segment, 7.3 MB
	// encoded, small enough to stay in cache.
	serveRows = 1 << 20
	// serveClients closed-loop clients each wait for their reply before
	// sending the next request.
	serveClients = 2
	// hotRanges is the number of distinct hot range queries; with the
	// four hot heavy shapes the hot set stays well inside the server's
	// 64-entry plan cache.
	hotRanges = 24
	// freshChecks is how many fresh-literal responses, drawn by seed, are
	// checked against the naive engine.
	freshChecks = 16
	// replaySample bounds the fresh-literal statements replayed for the
	// per-layer engine counts.
	replaySample = 64
)

// Heavy query shapes over lineitem, with %d holes for their literals.
var heavyShapes = []string{
	// TPC-H Q1.
	"SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), " +
		"sum(l_extendedprice * (100 - l_discount)), sum(l_extendedprice * (100 - l_discount) * (100 + l_tax)), " +
		"avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) " +
		"FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus",
	// Q6-shaped filtered sum.
	"SELECT sum(l_extendedprice * l_discount) FROM lineitem " +
		"WHERE l_shipdate >= %d AND l_shipdate < %d AND l_discount >= 5 AND l_discount <= 7 AND l_quantity < 24",
	// Dictionary IN-list.
	"SELECT l_linestatus, count(*), sum(l_extendedprice) FROM lineitem " +
		"WHERE l_returnflag IN ('A', 'R') AND l_quantity <= %d GROUP BY l_linestatus",
	// Many-group group-by: 3 flags x 50 quantities.
	"SELECT l_returnflag, l_quantity, count(*), sum(l_extendedprice) FROM lineitem " +
		"WHERE l_shipdate <= %d GROUP BY l_returnflag, l_quantity",
}

// rangeShape is the light request: a zone-skipped l_orderkey range.
const rangeShape = "SELECT count(*), sum(l_quantity), sum(l_extendedprice) FROM lineitem " +
	"WHERE l_orderkey >= %d AND l_orderkey < %d"

// heavySQL renders heavy shape k; fresh draws its literals from rng,
// otherwise the hot literals are used.
func heavySQL(k int, rng *rand.Rand) string {
	switch k {
	case 0:
		cut := 2436
		if rng != nil {
			cut = 1500 + rng.Intn(936)
		}
		return fmt.Sprintf(heavyShapes[0], cut)
	case 1:
		from := 731
		if rng != nil {
			from = 365 + rng.Intn(1800)
		}
		return fmt.Sprintf(heavyShapes[1], from, from+365)
	case 2:
		q := 50
		if rng != nil {
			q = 1 + rng.Intn(49)
		}
		return fmt.Sprintf(heavyShapes[2], q)
	default:
		cut := 2500
		if rng != nil {
			cut = 1500 + rng.Intn(936)
		}
		return fmt.Sprintf(heavyShapes[3], cut)
	}
}

// rangeRows is the width of every range query: four batches.
const rangeRows = 16384

// randomRange draws a range of rangeRows rows at a random offset.
func randomRange(rng *rand.Rand) string {
	lo := rng.Intn(serveRows - rangeRows)
	return fmt.Sprintf(rangeShape, lo, lo+rangeRows)
}

// serveStream is the seeded request mix: the hot statements, from which
// each client draws its own request sequence.
type serveStream struct {
	hot []string // hotRanges range queries, then the heavy shapes
}

func newServeStream(seed int64) *serveStream {
	rng := rand.New(rand.NewSource(seed))
	s := &serveStream{}
	for i := 0; i < hotRanges; i++ {
		s.hot = append(s.hot, randomRange(rng))
	}
	for k := range heavyShapes {
		s.hot = append(s.hot, heavySQL(k, nil))
	}
	return s
}

// A client sends its requests in blocks of 80 in seeded order, each block
// with the mix's exact shares, so the share of heavy requests does not
// vary from run to run: 60 hot ranges, 10 hot heavy, 7 fresh ranges and
// 3 fresh heavy (one in eight is fresh). Heavy requests take the
// four shapes in turn.
const (
	blockHotRanges   = 60
	blockHotHeavy    = 10
	blockFreshRanges = 7
	blockFreshHeavy  = 3
)

type request struct {
	sql   string
	fresh bool
}

// clientStream is one client's request sequence.
type clientStream struct {
	s     *serveStream
	rng   *rand.Rand
	heavy int // heavy requests drawn so far
	queue []request
}

func (c *clientStream) next() request {
	if len(c.queue) == 0 {
		c.refill()
	}
	r := c.queue[0]
	c.queue = c.queue[1:]
	return r
}

func (c *clientStream) refill() {
	nextHeavy := func() int {
		c.heavy++
		return c.heavy % len(heavyShapes)
	}
	var blk []request
	for i := 0; i < blockHotRanges; i++ {
		blk = append(blk, request{c.s.hot[c.rng.Intn(hotRanges)], false})
	}
	for i := 0; i < blockHotHeavy; i++ {
		blk = append(blk, request{c.s.hot[hotRanges+nextHeavy()], false})
	}
	for i := 0; i < blockFreshRanges; i++ {
		blk = append(blk, request{randomRange(c.rng), true})
	}
	for i := 0; i < blockFreshHeavy; i++ {
		blk = append(blk, request{heavySQL(nextHeavy(), c.rng), true})
	}
	c.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	c.queue = blk
}

// reply is one served request as the client saw it.
type reply struct {
	sql    string
	fresh  bool
	start  time.Time
	lat    time.Duration
	status int
	body   []byte
	traced bool // sent in the traced half of a traced run
}

// wireResponse is the part of serve.QueryResponse the checks read; rows
// stay raw so they compare byte for byte.
type wireResponse struct {
	Rows        json.RawMessage `json:"rows"`
	RowsScanned int64           `json:"rows_scanned"`
	RequestID   string          `json:"request_id"`
}

// send issues one request through the handler and times it from call to
// return.
func send(h http.Handler, sqlText string) reply {
	body, _ := json.Marshal(serve.QueryRequest{Query: sqlText}) // a struct of one string always marshals
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, req)
	return reply{sql: sqlText, start: start, lat: time.Since(start), status: w.Code, body: w.Body.Bytes()}
}

// runServeMix drives the server's handler in-process with two closed-loop
// clients over a cache-resident lineitem table.
func runServeMix(b *bench) error {
	var (
		tbl  *table.Table
		srv  *serve.Server
		warm []reply
		err  error
	)
	stream := newServeStream(b.seed)
	for i := 0; i < setupRuns; i++ {
		tbl, srv, warm = nil, nil, nil
		runtime.GC() // drop the previous set-up before the next
		b.beginSetup()
		if tbl, srv, warm, err = b.setupServe(stream); err != nil {
			return err
		}
		b.setupDone()
	}
	h := srv.Handler()
	for k := range heavyShapes {
		p, err := engine.Prepare(tbl, mustParse(heavySQL(k, nil)).Query, engine.Options{CostProfile: b.prof})
		if err != nil {
			return err
		}
		b.noteStrategy(fmt.Sprintf("heavy%d", k), p)
	}
	runtime.GC()

	window := time.Duration(b.seconds) * time.Second
	var gs *goroutineSampler
	if b.traced {
		gs = startGoroutineSampler()
	}
	cache0 := srv.Cache().Stats()
	perClient := make([][]reply, serveClients)
	var wg sync.WaitGroup
	gc0, cpu0, t0 := readGC(), cpuTime(), time.Now()
	deadline := t0.Add(window)
	// Past the deadline the clients go on until the tail percentile has
	// the samples it needs.
	var sent atomic.Int64
	need := int64(minSamples(tailQuantile[b.workload]))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &clientStream{s: stream, rng: rand.New(rand.NewSource(b.seed*7919 + int64(c)))}
			for sent.Add(1) <= need || time.Now().Before(deadline) {
				q := cs.next()
				r := send(h, q.sql)
				r.fresh = q.fresh
				r.traced = b.traced && r.start.Sub(t0) >= window/2
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	wall, cpu, gc1 := time.Since(t0), cpuTime()-cpu0, readGC()
	b.endToEnd("peak_rss_mb", peakRSSMB(), "MB")
	cache1 := srv.Cache().Stats()
	var replies []reply
	for _, rs := range perClient {
		replies = append(replies, rs...)
	}

	decoded, rows, lat := b.checkServe(tbl, append(warm, replies...), len(warm))
	b.storedBytes(tbl)
	if !b.traced {
		return b.queryMetrics(lat, rows, len(lat), wall, cpu)
	}
	b.runtimeMetrics(gc1.since(gc0, gcSnapshot{}), len(replies), gs.finish())
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	b.layer("serve.plan_cache_hit_ratio", ratio(cache1.Hits-cache0.Hits, lookups), "ratio")
	acc, err := b.replay(tbl, replies)
	if err != nil {
		return err
	}
	// Phase cycles and units per query come from the server's own
	// per-request traces; the replay supplies the counts, unit skew and
	// coverage.
	acc.phases, acc.phaseRows, acc.units, acc.tracedScans = b.journalMetrics(srv.Journal(), replies, decoded[len(warm):])
	b.scanMetrics(&acc)
	var plain, traced []float64
	for _, r := range replies {
		if r.traced {
			traced = append(traced, float64(r.lat)/1e6)
		} else {
			plain = append(plain, float64(r.lat)/1e6)
		}
	}
	b.layer("obs.trace_overhead_ratio", div(median(traced), median(plain)), "ratio")
	p, err := engine.Prepare(tbl, mustParse(heavySQL(0, nil)).Query, engine.Options{CostProfile: b.prof})
	if err != nil {
		return err
	}
	b.modelError(p)
	return nil
}

// setupServe calibrates, starts a server over an empty table, loads the
// table, and warms the plan cache with each hot statement once, in order.
// The first warm-up reply is the first query to see the loaded rows.
func (b *bench) setupServe(stream *serveStream) (*table.Table, *serve.Server, []reply, error) {
	b.calibrate()
	tbl, err := table.New(tpch.Schema())
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := serve.Config{Engine: engine.Options{CostProfile: b.prof}}
	if b.traced {
		// Size the journal to hold every request of the window.
		cfg.JournalSize = 3000 * b.seconds
	}
	srv := serve.New(map[string]*table.Table{"lineitem": tbl}, cfg)
	h := srv.Handler()
	ls, err := loadLineitem(tbl, b.seed, serveRows, newOracle())
	if err != nil {
		return nil, nil, nil, err
	}
	var warm []reply
	for i, q := range stream.hot {
		r := send(h, q)
		if i == 0 {
			b.visible(ls, r.start.Add(r.lat))
			b.loadMetrics(ls)
		}
		warm = append(warm, r)
	}
	return tbl, srv, warm, nil
}

func mustParse(q string) *sql.Statement {
	st, err := sql.Parse(q)
	if err != nil {
		panic(fmt.Sprintf("benchmark query does not parse: %v: %s", err, q))
	}
	return st
}

// checkServe checks every reply after the window: each must be a 200;
// every hot statement's replies must match the naive engine's answer, and
// so must a seeded sample of fresh-literal replies. It returns the decoded
// replies and, for the timed replies (those after the first nWarm), the
// rows scanned and the latencies in ms of the successful ones.
func (b *bench) checkServe(tbl *table.Table, replies []reply, nWarm int) ([]wireResponse, int64, []float64) {
	decoded := make([]wireResponse, len(replies))
	check := map[string]bool{}
	var fresh []int
	for i, r := range replies {
		if !r.fresh {
			check[r.sql] = true
		} else {
			fresh = append(fresh, i)
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	checkReply := map[int]bool{}
	for _, i := range fresh[:min(freshChecks, len(fresh))] {
		check[replies[i].sql] = true
		checkReply[i] = true
	}
	want := naiveAnswers(tbl, check)

	var rows int64
	var lat []float64
	for i, r := range replies {
		b.attempted++
		if r.status != http.StatusOK {
			b.fail("status %d for %q: %s", r.status, r.sql, bytes.TrimSpace(r.body))
			continue
		}
		if err := json.Unmarshal(r.body, &decoded[i]); err != nil {
			b.fail("undecodable reply for %q: %v", r.sql, err)
			continue
		}
		if !r.fresh || checkReply[i] {
			w := want[r.sql]
			if w.err != nil {
				b.fail("naive %q: %v", r.sql, w.err)
			} else if !bytes.Equal(decoded[i].Rows, w.rows) {
				b.fail("reply for %q: rows %s, naive engine says %s", r.sql, decoded[i].Rows, w.rows)
				continue
			}
		}
		if i >= nWarm {
			rows += decoded[i].RowsScanned
			lat = append(lat, float64(r.lat)/1e6)
		}
	}
	b.notef("checked %d distinct statements against the naive engine (%d hot, %d fresh-literal replies sampled)", len(want), len(want)-len(checkReply), len(checkReply))
	return decoded, rows, lat
}

type naiveAnswer struct {
	rows []byte
	err  error
}

// naiveAnswers evaluates each statement with engine.RunNaive on two
// goroutines and renders the rows as the server does.
func naiveAnswers(tbl *table.Table, stmts map[string]bool) map[string]naiveAnswer {
	var list []string
	for q := range stmts {
		list = append(list, q)
	}
	sort.Strings(list)
	out := make([]naiveAnswer, len(list))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(list); i += 2 {
				out[i] = naiveAnswer1(tbl, list[i])
			}
		}(w)
	}
	wg.Wait()
	m := make(map[string]naiveAnswer, len(list))
	for i, q := range list {
		m[q] = out[i]
	}
	return m
}

func naiveAnswer1(tbl *table.Table, q string) naiveAnswer {
	st, err := sql.Parse(q)
	if err != nil {
		return naiveAnswer{err: err}
	}
	res, err := engine.RunNaive(tbl, st.Query)
	if err != nil {
		return naiveAnswer{err: err}
	}
	rows := make([][]any, len(res.Rows))
	for i := range res.Rows {
		r := &res.Rows[i]
		vals := make([]any, 0, len(r.Keys)+len(r.Stats))
		for _, k := range r.Keys {
			vals = append(vals, k)
		}
		for ai := range r.Stats {
			if res.AggKinds[ai] == engine.Avg {
				vals = append(vals, r.Avg(ai))
			} else {
				vals = append(vals, r.Value(st.Query, ai))
			}
		}
		rows[i] = vals
	}
	enc, err := json.Marshal(rows)
	return naiveAnswer{rows: enc, err: err}
}

// journalMetrics reports the serve and sql layers from the request
// journal and returns the served scans' phase totals, rows scanned, units
// and the number of requests found in the journal. It also records each traced-half request as spans sharing its
// journal ID: client.request ⊃ serve.request ⊃ parse, queue, plan, exec,
// encode.
func (b *bench) journalMetrics(j *obs.Journal, replies []reply, decoded []wireResponse) (phases [obs.NumPhases]obs.PhaseStat, scanned, units, n int64) {
	byID := map[uint64]obs.RequestSpan{}
	for _, s := range j.Snapshot() {
		byID[s.ID] = s
	}
	var parse, queue, plan, prep, overhead []float64
	var exec, total int64
	missing := 0
	for i, r := range replies {
		id, err := obs.ParseRequestID(decoded[i].RequestID)
		s, ok := byID[id]
		if err != nil || !ok {
			missing++
			continue
		}
		n++
		parse = append(parse, float64(s.ParseNS)/1e3)
		queue = append(queue, float64(s.QueueNS)/1e3)
		plan = append(plan, float64(s.PlanNS)/1e3)
		if !s.CacheHit {
			prep = append(prep, float64(s.PlanNS)/1e3)
		}
		overhead = append(overhead, float64(s.TotalNS-s.ExecNS)/1e3)
		exec += s.ExecNS
		total += s.TotalNS
		units += int64(s.Units)
		scanned += s.RowsScanned
		for p := range s.Phases {
			phases[p].Nanos += s.Phases[p].Nanos
		}
		if r.traced {
			b.spans.add(id, "client.request", "", r.start, r.lat)
			b.spans.add(id, "serve.request", "client.request", s.Start, time.Duration(s.TotalNS))
			at := s.Start
			for _, st := range []struct {
				name string
				ns   int64
			}{{"serve.parse", s.ParseNS}, {"serve.queue", s.QueueNS}, {"serve.plan", s.PlanNS}, {"serve.exec", s.ExecNS}, {"serve.encode", s.EncodeNS}} {
				b.spans.add(id, st.name, "serve.request", at, time.Duration(st.ns))
				at = at.Add(time.Duration(st.ns))
			}
		}
	}
	if missing > 0 {
		b.notef("journal: %d of %d requests missing (ring of %d wrapped)", missing, len(replies), j.Cap())
	}
	b.layer("sql.parse_us", median(parse), "us")
	q50, _ := quantile(queue, 0.5)
	q99, _ := quantile(queue, 0.99)
	b.layer("serve.queue_wait_p50_us", q50, "us")
	b.layer("serve.queue_wait_p99_us", q99, "us")
	b.layer("serve.plan_us", median(plan), "us")
	b.layer("engine.prepare_us", median(prep), "us")
	b.layer("serve.overhead_us", median(overhead), "us")
	b.layer("serve.exec_share", ratio(exec, total), "ratio")
	return phases, scanned, units, n
}

// replay runs every distinct hot statement, and a seeded sample of the
// fresh-literal ones, once more under RunTraced with per-unit spans, and
// folds the exact ScanStats counts, unit skew and coverage in weighted by
// how many requests each stands for. The served requests' own traces
// carry phase totals but no per-unit spans.
func (b *bench) replay(tbl *table.Table, replies []reply) (scanAcc, error) {
	count := map[string]int64{}
	var fresh []string
	for _, r := range replies {
		if r.fresh {
			fresh = append(fresh, r.sql)
		} else {
			count[r.sql]++
		}
	}
	freshWeight := int64(1)
	if len(fresh) > replaySample {
		rng := rand.New(rand.NewSource(b.seed + 1))
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		freshWeight = int64(len(fresh) / replaySample)
		fresh = fresh[:replaySample]
	}
	var acc scanAcc
	run := func(q string, w int64) error {
		p, err := engine.Prepare(tbl, mustParse(q).Query, engine.Options{CostProfile: b.prof})
		if err != nil {
			return err
		}
		tr := obs.NewScanTrace(traceSpanCap)
		_, st, err := p.RunTraced(context.Background(), tr)
		if err != nil {
			return err
		}
		acc.addStats(st, w)
		acc.addTrace(tr, st.RowsTotal, w)
		return nil
	}
	for q, w := range count {
		if err := run(q, w); err != nil {
			return acc, fmt.Errorf("replay %q: %w", q, err)
		}
	}
	for _, q := range fresh {
		if err := run(q, freshWeight); err != nil {
			return acc, fmt.Errorf("replay %q: %w", q, err)
		}
	}
	b.notef("replayed %d statements for the engine counts; phase cycles from %d served requests' own traces", len(count)+len(fresh), len(replies))
	return acc, nil
}
