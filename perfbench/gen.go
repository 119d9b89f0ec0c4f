package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// chunkRows is the generator's unit of work and the size of one bulk-load
// AppendColumns call: four calls fill one default 1M-row segment.
const chunkRows = 1 << 18

// batch is generated lineitem rows in the column-major shape
// table.AppendColumns takes.
type batch struct {
	n    int
	ints map[string][]int64
	strs map[string][]string
}

// newBatch allocates a batch of n rows.
func newBatch(n int) batch {
	b := batch{n: n, ints: map[string][]int64{}, strs: map[string][]string{}}
	for _, c := range tpch.Schema() {
		if c.Type == table.Int64 {
			b.ints[c.Name] = make([]int64, n)
		} else {
			b.strs[c.Name] = make([]string, n)
		}
	}
	return b
}

// fill overwrites the batch with lineitem rows drawn with
// tpch.Generate's distributions. Row keys start at firstKey; the stream is
// fixed by seed alone, so any batch can be regenerated independently of
// the others. The loop copies tpch.Generate's, which builds a table rather
// than raw column batches; a change to one must be made to the other.
func (b *batch) fill(seed int64, firstKey int64) {
	rng := rand.New(rand.NewSource(seed))
	n := b.n
	for k, v := range b.ints {
		b.ints[k] = v[:n]
	}
	for k, v := range b.strs {
		b.strs[k] = v[:n]
	}
	key, qty, price := b.ints[tpch.ColOrderKey], b.ints[tpch.ColQuantity], b.ints[tpch.ColExtendedPrice]
	disc, tax, ship := b.ints[tpch.ColDiscount], b.ints[tpch.ColTax], b.ints[tpch.ColShipDate]
	flag, status := b.strs[tpch.ColReturnFlag], b.strs[tpch.ColLineStatus]
	for i := 0; i < n; i++ {
		orderDay := rng.Int63n(tpch.MaxOrderDay + 1)
		shipDay := orderDay + 1 + rng.Int63n(121)
		receiptDay := shipDay + 1 + rng.Int63n(30)
		q := rng.Int63n(50) + 1
		key[i] = firstKey + int64(i)
		qty[i] = q
		price[i] = q * (90100 + rng.Int63n(209899-90100+1))
		disc[i] = rng.Int63n(11)
		tax[i] = rng.Int63n(9)
		ship[i] = shipDay
		switch {
		case receiptDay <= tpch.CurrentDateDay && rng.Intn(2) == 0:
			flag[i] = "R"
		case receiptDay <= tpch.CurrentDateDay:
			flag[i] = "A"
		default:
			flag[i] = "N"
		}
		if shipDay <= tpch.CurrentDateDay {
			status[i] = "F"
		} else {
			status[i] = "O"
		}
	}
}

// chunkSeed derives the seed of chunk i of a workload's stream.
func chunkSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(i)
}

// loadStats records a bulk load: rows appended, the summed wall time of
// the AppendColumns and Flush calls, each call's duration, and when the
// calls started (for the visibility metric).
type loadStats struct {
	rows       int
	appendTime time.Duration
	calls      []appendCall
}

// appendCall is one timed table.AppendColumns call.
type appendCall struct {
	start  time.Time
	dur    time.Duration
	rows   int
	sealed bool // the call sealed at least one segment
}

// appendTimed appends b and records the call.
func appendTimed(tbl *table.Table, b batch, ls *loadStats) error {
	segs := len(tbl.Segments())
	start := time.Now()
	err := tbl.AppendColumns(b.ints, b.strs)
	d := time.Since(start)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	ls.rows += b.n
	ls.appendTime += d
	ls.calls = append(ls.calls, appendCall{start: start, dur: d, rows: b.n, sealed: len(tbl.Segments()) > segs})
	return nil
}

// loadLineitem fills an empty lineitem table with rows rows and seals
// them, generating and appending one chunk at a time into a reused buffer
// (AppendColumns copies the rows). Only the append and flush calls are
// timed, and no generation runs beside them. Every generated row also
// feeds the oracle.
func loadLineitem(tbl *table.Table, seed int64, rows int, orc *oracle) (loadStats, error) {
	var ls loadStats
	b := newBatch(chunkRows)
	for i := 0; i*chunkRows < rows; i++ {
		b.n = min(chunkRows, rows-i*chunkRows)
		b.fill(chunkSeed(seed, 0, i), int64(i*chunkRows))
		orc.add(b)
		if err := appendTimed(tbl, b, &ls); err != nil {
			return ls, err
		}
	}
	start := time.Now()
	tbl.Flush()
	ls.appendTime += time.Since(start)
	return ls, nil
}

// oracle keeps exact running totals of every generated row: TPC-H Q1's
// groups and the per-returnflag count and sums. It reads the generator's
// values, never the encoded table, so it checks the engine independently.
type oracle struct {
	q1   map[[2]string]*q1Acc
	flag map[string]*flagAcc
}

type q1Acc struct{ n, qty, price, disc, discPrice, charge int64 }

type flagAcc struct{ n, qty, price int64 }

func newOracle() *oracle {
	return &oracle{q1: map[[2]string]*q1Acc{}, flag: map[string]*flagAcc{}}
}

func (o *oracle) add(b batch) {
	qty, price := b.ints[tpch.ColQuantity], b.ints[tpch.ColExtendedPrice]
	disc, tax, ship := b.ints[tpch.ColDiscount], b.ints[tpch.ColTax], b.ints[tpch.ColShipDate]
	flag, status := b.strs[tpch.ColReturnFlag], b.strs[tpch.ColLineStatus]
	for i := 0; i < b.n; i++ {
		f := o.flag[flag[i]]
		if f == nil {
			f = &flagAcc{}
			o.flag[flag[i]] = f
		}
		f.n++
		f.qty += qty[i]
		f.price += price[i]
		if ship[i] > tpch.Q1CutoffDay {
			continue
		}
		k := [2]string{flag[i], status[i]}
		a := o.q1[k]
		if a == nil {
			a = &q1Acc{}
			o.q1[k] = a
		}
		dp := price[i] * (100 - disc[i])
		a.n++
		a.qty += qty[i]
		a.price += price[i]
		a.disc += disc[i]
		a.discPrice += dp
		a.charge += dp * (100 + tax[i])
	}
}

// clone snapshots the totals.
func (o *oracle) clone() *oracle {
	c := newOracle()
	for k, v := range o.q1 {
		a := *v
		c.q1[k] = &a
	}
	for k, v := range o.flag {
		a := *v
		c.flag[k] = &a
	}
	return c
}

// q1Rows renders the expected tpch.Q1() result rows in the engine's
// order: stats per aggregate as {Count, Sum}, with Sum zero for COUNT.
func (o *oracle) q1Rows() []engine.Row {
	keys := make([][2]string, 0, len(o.q1))
	for k := range o.q1 {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	rows := make([]engine.Row, 0, len(keys))
	for _, k := range keys {
		a := o.q1[k]
		rows = append(rows, engine.Row{
			Keys: []string{k[0], k[1]},
			Stats: []engine.Stat{
				{Count: a.n, Sum: a.qty},
				{Count: a.n, Sum: a.price},
				{Count: a.n, Sum: a.discPrice},
				{Count: a.n, Sum: a.charge},
				{Count: a.n, Sum: a.qty},
				{Count: a.n, Sum: a.price},
				{Count: a.n, Sum: a.disc},
				{Count: a.n},
			},
		})
	}
	return rows
}

// flagQuery is the per-returnflag count and sums ingest_mixed checks
// against the running totals.
func flagQuery() *engine.Query {
	return &engine.Query{
		GroupBy: []string{tpch.ColReturnFlag},
		Aggregates: []engine.Aggregate{
			engine.CountStar(),
			{Kind: engine.Sum, Arg: expr.Col(tpch.ColQuantity), Name: "sum_qty"},
			{Kind: engine.Sum, Arg: expr.Col(tpch.ColExtendedPrice), Name: "sum_price"},
		},
	}
}

// flagRows renders the expected flagQuery() result rows.
func (o *oracle) flagRows() []engine.Row {
	keys := make([]string, 0, len(o.flag))
	for k := range o.flag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]engine.Row, 0, len(keys))
	for _, k := range keys {
		a := o.flag[k]
		rows = append(rows, engine.Row{
			Keys:  []string{k},
			Stats: []engine.Stat{{Count: a.n}, {Count: a.n, Sum: a.qty}, {Count: a.n, Sum: a.price}},
		})
	}
	return rows
}

// sameRows reports whether an engine result holds exactly the want rows,
// and describes the first difference when it does not.
func sameRows(got *engine.Result, want []engine.Row) (bool, string) {
	if got == nil {
		return false, "nil result"
	}
	if len(got.Rows) != len(want) {
		return false, fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want))
	}
	for i := range want {
		g, w := got.Rows[i], want[i]
		if fmt.Sprint(g.Keys) != fmt.Sprint(w.Keys) {
			return false, fmt.Sprintf("row %d keys %v, want %v", i, g.Keys, w.Keys)
		}
		if len(g.Stats) != len(w.Stats) {
			return false, fmt.Sprintf("row %d has %d aggregates, want %d", i, len(g.Stats), len(w.Stats))
		}
		for j := range w.Stats {
			if g.Stats[j] != w.Stats[j] {
				return false, fmt.Sprintf("row %v aggregate %d = %+v, want %+v", w.Keys, j, g.Stats[j], w.Stats[j])
			}
		}
	}
	return true, ""
}
