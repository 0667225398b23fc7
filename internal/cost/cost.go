// Package cost implements the cost model and the multidimensional valuation
// of query-answers. The paper prices offers by estimated properties — total
// time, first-row latency, delivery rate, row count, freshness, completeness
// and optionally money — aggregated by an administrator-defined weighting
// function; the default weights reduce the valuation to total execution time,
// the choice the paper uses throughout its examples.
package cost

import "math"

// Model holds the cost constants of a node's engine and network, in
// milliseconds (time units are arbitrary but consistent federation-wide for
// the experiments).
type Model struct {
	CPURow       float64 // per-row predicate/projection evaluation
	IORow        float64 // per-row fragment read
	HashBuildRow float64
	HashProbeRow float64
	SortRow      float64 // multiplied by log2(n)
	AggRow       float64
	NetLatency   float64 // per message
	BytesPerMS   float64 // network bandwidth
	StartupCost  float64 // fixed cost of starting a local plan
}

// Default returns the cost constants used across the experiments: a node
// that reads ~1M rows/s, hashes ~2M rows/s, and a LAN-ish network with 1 ms
// latency and 100 MB/s bandwidth.
func Default() *Model {
	return &Model{
		CPURow:       0.0002,
		IORow:        0.001,
		HashBuildRow: 0.0006,
		HashProbeRow: 0.0004,
		SortRow:      0.0003,
		AggRow:       0.0005,
		NetLatency:   1.0,
		BytesPerMS:   100_000, // 100 MB/s
		StartupCost:  0.5,
	}
}

// Scan costs reading rows from local storage and evaluating a predicate.
func (m *Model) Scan(rows int64) float64 {
	return m.StartupCost + float64(rows)*(m.IORow+m.CPURow)
}

// HashJoin costs building on build rows, probing with probe rows and
// emitting out rows.
func (m *Model) HashJoin(build, probe, out int64) float64 {
	return float64(build)*m.HashBuildRow + float64(probe)*m.HashProbeRow + float64(out)*m.CPURow
}

// NLJoin costs a nested-loop join.
func (m *Model) NLJoin(l, r, out int64) float64 {
	return float64(l)*float64(r)*m.CPURow + float64(out)*m.CPURow
}

// Sort costs an n·log n sort.
func (m *Model) Sort(rows int64) float64 {
	if rows <= 1 {
		return 0
	}
	return float64(rows) * math.Log2(float64(rows)) * m.SortRow
}

// Aggregate costs hash aggregation of rows into groups.
func (m *Model) Aggregate(rows, groups int64) float64 {
	return float64(rows)*m.AggRow + float64(groups)*m.CPURow
}

// Filter costs evaluating a predicate over rows.
func (m *Model) Filter(rows int64) float64 { return float64(rows) * m.CPURow }

// BuyerJoin estimates joining inputs of l and r rows where they were fetched
// to, with no column statistics at hand: the output cardinality under the
// containment assumption, the larger input's row count standing in for the
// join key's distinct count and every further predicate keeping a third (at
// least one row), and the cost of a hash join built on the smaller input —
// of a nested loop when no predicate connects the two.
func (m *Model) BuyerJoin(l, r int64, npreds int) (rows int64, cost float64) {
	out := float64(l) * float64(r)
	if npreds > 0 {
		out = out / math.Max(float64(max(l, r)), 1) * math.Pow(1.0/3.0, float64(npreds-1))
	}
	rows = int64(math.Ceil(math.Max(out, 1)))
	if npreds == 0 {
		return rows, m.NLJoin(l, r, rows)
	}
	return rows, m.HashJoin(min(l, r), max(l, r), rows)
}

// BuyerTail adds to local, a buyer's processing cost so far, what it runs over
// its joined rows — the compensation filter, an aggregation into rows/2+1
// groups when the query aggregates, a sort when it orders — and returns the
// sum and the rows that come out.
func (m *Model) BuyerTail(local float64, rows int64, aggregates, ordered bool) (float64, int64) {
	local += m.Filter(rows)
	if aggregates {
		groups := rows/2 + 1
		local += m.Aggregate(rows, groups)
		rows = groups
	}
	if ordered {
		local += m.Sort(rows)
	}
	return local, rows
}

// Transfer costs shipping bytes over the network as one message stream.
func (m *Model) Transfer(bytes float64) float64 {
	if bytes <= 0 {
		return m.NetLatency
	}
	return m.NetLatency + bytes/m.BytesPerMS
}

// Valuation is the multidimensional value of a query-answer, as estimated by
// the seller's optimizer (§3.1 of the paper).
type Valuation struct {
	TotalTime    float64 // ms to produce and deliver the full answer
	FirstRow     float64 // ms to first row
	RowsPerSec   float64
	Rows         int64
	Bytes        float64
	Freshness    float64 // 1 = current, 0 = arbitrarily stale
	Completeness float64 // fraction of requested data covered
	Money        float64 // charged amount, if the federation is commercial
}

// Weights is the administrator-defined aggregation function that ranks
// offers. Score is a weighted sum where quality dimensions (freshness,
// completeness, rate) contribute inverted so that lower scores are better.
type Weights struct {
	TotalTime    float64
	FirstRow     float64
	Rows         float64
	Staleness    float64 // weight on (1 - Freshness)
	Incomplete   float64 // weight on (1 - Completeness)
	Money        float64
	SlowDelivery float64 // weight on 1/RowsPerSec
}

// DefaultWeights values offers purely by total time, the paper's running
// choice ("the valuation of the offered query-answers will be the total
// execution time of the query").
func DefaultWeights() Weights { return Weights{TotalTime: 1} }

// Score aggregates a valuation; lower is better.
func (w Weights) Score(v Valuation) float64 {
	s := w.TotalTime*v.TotalTime +
		w.FirstRow*v.FirstRow +
		w.Rows*float64(v.Rows) +
		w.Staleness*(1-v.Freshness) +
		w.Incomplete*(1-v.Completeness) +
		w.Money*v.Money
	if w.SlowDelivery > 0 && v.RowsPerSec > 0 {
		s += w.SlowDelivery / v.RowsPerSec
	}
	return s
}
