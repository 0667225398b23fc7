// Package stats implements per-fragment table statistics — row counts,
// per-column NDV, min/max and equi-depth histograms — plus the selectivity
// and join-cardinality estimation used by every cost-based component: the
// sellers' local optimizers, the buyer plan generator, and the centralized
// baseline.
package stats

import (
	"math"
	"sort"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/value"
)

// DefaultBuckets is the histogram resolution used when building stats from
// data.
const DefaultBuckets = 32

// Histogram is an equi-depth histogram. Bucket i covers (Bounds[i],
// Bounds[i+1]], except bucket 0 which is inclusive on both ends. Counts[i]
// is the number of rows in bucket i.
type Histogram struct {
	Bounds []value.Value
	Counts []int64
}

// BuildHistogram constructs an equi-depth histogram over non-NULL values.
// Returns nil when there are no values or they are not mutually comparable.
func BuildHistogram(vals []value.Value, buckets int) *Histogram {
	var clean []value.Value
	for _, v := range vals {
		if !v.IsNull() {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 || buckets < 1 {
		return nil
	}
	sort.SliceStable(clean, func(i, j int) bool {
		c, _ := value.Compare(clean[i], clean[j])
		return c < 0
	})
	if buckets > len(clean) {
		buckets = len(clean)
	}
	h := &Histogram{}
	per := len(clean) / buckets
	extra := len(clean) % buckets
	h.Bounds = append(h.Bounds, clean[0])
	idx := 0
	for b := 0; b < buckets; b++ {
		n := per
		if b < extra {
			n++
		}
		if n == 0 {
			continue
		}
		idx += n
		h.Bounds = append(h.Bounds, clean[idx-1])
		h.Counts = append(h.Counts, int64(n))
	}
	return h
}

// Total returns the number of rows summarized by the histogram.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// FracInRange estimates the fraction of summarized rows admitted by r,
// assuming uniformity within buckets.
func (h *Histogram) FracInRange(r *expr.Range) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	var in float64
	for b := range h.Counts {
		lo, hi := h.Bounds[b], h.Bounds[b+1]
		f := bucketOverlap(lo, hi, r)
		in += f * float64(h.Counts[b])
	}
	frac := in / float64(total)
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}

// bucketOverlap estimates what fraction of a bucket [lo,hi] satisfies r.
func bucketOverlap(lo, hi value.Value, r *expr.Range) float64 {
	if r.Empty {
		return 0
	}
	if r.Set != nil {
		// Finite set: count members inside the bucket, assume each hits a
		// distinct-value sliver. Without per-bucket NDV, approximate each
		// member as covering a small constant fraction of the bucket.
		n := 0
		for _, v := range r.Set {
			if ge(v, lo) && le(v, hi) {
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return math.Min(1, float64(n)*0.1)
	}
	// Interval form: numeric buckets interpolate, others all-or-nothing.
	inLo, inHi := true, true
	if r.HasLo {
		if lt(hi, r.Lo) {
			return 0
		}
		inLo = ge(lo, r.Lo)
	}
	if r.HasHi {
		if gt(lo, r.Hi) {
			return 0
		}
		inHi = le(hi, r.Hi)
	}
	if inLo && inHi {
		return 1
	}
	if numeric(lo) && numeric(hi) {
		span := hi.AsFloat() - lo.AsFloat()
		if span <= 0 {
			return 0.5
		}
		a, b := lo.AsFloat(), hi.AsFloat()
		if r.HasLo && numeric(r.Lo) && r.Lo.AsFloat() > a {
			a = r.Lo.AsFloat()
		}
		if r.HasHi && numeric(r.Hi) && r.Hi.AsFloat() < b {
			b = r.Hi.AsFloat()
		}
		if b < a {
			return 0
		}
		if b == a {
			// The intersection degenerates to one point (e.g. a range
			// starting exactly at the bucket's upper bound). Credit the same
			// distinct-value sliver the finite-set path gives one member, so
			// widening a range past a bucket edge never shrinks the estimate.
			return 0.1
		}
		return (b - a) / span
	}
	return 0.5
}

func numeric(v value.Value) bool { return v.K == value.Int || v.K == value.Float }

func ge(a, b value.Value) bool { c, ok := value.Compare(a, b); return ok && c >= 0 }
func le(a, b value.Value) bool { c, ok := value.Compare(a, b); return ok && c <= 0 }
func lt(a, b value.Value) bool { c, ok := value.Compare(a, b); return ok && c < 0 }
func gt(a, b value.Value) bool { c, ok := value.Compare(a, b); return ok && c > 0 }

// ColumnStats summarizes one column.
type ColumnStats struct {
	NDV      int64
	NullFrac float64
	Min, Max value.Value
	Hist     *Histogram
}

// TableStats summarizes one table fragment.
type TableStats struct {
	Rows     int64
	RowBytes float64
	Cols     map[string]*ColumnStats // lower-cased column name
}

// Col returns stats for a column (case-insensitive), or nil.
func (t *TableStats) Col(name string) *ColumnStats {
	if t == nil || t.Cols == nil {
		return nil
	}
	return t.Cols[strings.ToLower(name)]
}

// Clone returns a shallow-histogram copy with independent maps.
func (t *TableStats) Clone() *TableStats {
	out := &TableStats{Rows: t.Rows, RowBytes: t.RowBytes, Cols: map[string]*ColumnStats{}}
	for k, v := range t.Cols {
		c := *v
		out.Cols[k] = &c
	}
	return out
}

// Scale returns stats for a filtered version of the table with selectivity f:
// rows and NDVs shrink, bounds stay.
func (t *TableStats) Scale(f float64) *TableStats {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	out := t.Clone()
	out.Rows = int64(math.Ceil(float64(t.Rows) * f))
	for _, c := range out.Cols {
		// Cardinality of distinct values under uniform sampling.
		c.NDV = int64(math.Ceil(float64(c.NDV) * (1 - math.Pow(1-f, 2))))
		if c.NDV < 1 && out.Rows > 0 {
			c.NDV = 1
		}
		if c.NDV > out.Rows {
			c.NDV = out.Rows
		}
	}
	return out
}

// FromRows computes statistics from the actual rows of a fragment.
func FromRows(def *catalog.TableDef, rows []value.Row) *TableStats {
	ts := &TableStats{Rows: int64(len(rows)), Cols: map[string]*ColumnStats{}}
	var bytes float64
	for ci, cd := range def.Columns {
		cs := &ColumnStats{}
		distinct := map[string]bool{}
		var vals []value.Value
		nulls := 0
		for _, r := range rows {
			v := r[ci]
			if v.IsNull() {
				nulls++
				continue
			}
			vals = append(vals, v)
			distinct[value.Key(value.Row{v}, []int{0})] = true
			if cs.Min.IsNull() || lt(v, cs.Min) {
				cs.Min = v
			}
			if cs.Max.IsNull() || gt(v, cs.Max) {
				cs.Max = v
			}
			switch v.K {
			case value.Str:
				bytes += float64(len(v.S)) + 4
			default:
				bytes += 8
			}
		}
		cs.NDV = int64(len(distinct))
		if len(rows) > 0 {
			cs.NullFrac = float64(nulls) / float64(len(rows))
		}
		cs.Hist = BuildHistogram(vals, DefaultBuckets)
		ts.Cols[strings.ToLower(cd.Name)] = cs
	}
	if len(rows) > 0 {
		ts.RowBytes = bytes / float64(len(rows))
	} else {
		ts.RowBytes = float64(8 * len(def.Columns))
	}
	return ts
}

// Synthetic builds statistics without data, for declarative workload setup:
// each column gets the given NDV and a uniform numeric range.
func Synthetic(def *catalog.TableDef, rows int64, ndv int64) *TableStats {
	ts := &TableStats{Rows: rows, RowBytes: float64(12 * len(def.Columns)), Cols: map[string]*ColumnStats{}}
	for _, cd := range def.Columns {
		n := ndv
		if n > rows {
			n = rows
		}
		ts.Cols[strings.ToLower(cd.Name)] = &ColumnStats{
			NDV: n,
			Min: value.NewInt(0),
			Max: value.NewInt(n),
		}
	}
	return ts
}

// Merge combines stats of two fragments of the same table (union of rows).
func Merge(a, b *TableStats) *TableStats {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &TableStats{Rows: a.Rows + b.Rows, Cols: map[string]*ColumnStats{}}
	if out.Rows > 0 {
		out.RowBytes = (a.RowBytes*float64(a.Rows) + b.RowBytes*float64(b.Rows)) / float64(out.Rows)
	}
	for k, ca := range a.Cols {
		cb := b.Cols[k]
		if cb == nil {
			out.Cols[k] = ca
			continue
		}
		m := &ColumnStats{NDV: max(ca.NDV, cb.NDV)}
		// Disjoint fragments can double NDV; split the difference.
		m.NDV = (m.NDV + ca.NDV + cb.NDV) / 2
		if m.NDV > out.Rows {
			m.NDV = out.Rows
		}
		m.Min, m.Max = ca.Min, ca.Max
		if !cb.Min.IsNull() && (m.Min.IsNull() || lt(cb.Min, m.Min)) {
			m.Min = cb.Min
		}
		if !cb.Max.IsNull() && (m.Max.IsNull() || gt(cb.Max, m.Max)) {
			m.Max = cb.Max
		}
		if out.Rows > 0 {
			m.NullFrac = (ca.NullFrac*float64(a.Rows) + cb.NullFrac*float64(b.Rows)) / float64(out.Rows)
		}
		out.Cols[k] = m
	}
	for k, cb := range b.Cols {
		if _, ok := out.Cols[k]; !ok {
			out.Cols[k] = cb
		}
	}
	return out
}

// Default selectivities for predicates the range analyzer cannot express,
// following the classic System R constants.
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3.0
	defaultOtherSel = 0.25
)

// Selectivity estimates the fraction of rows of a single table satisfying
// pred. Column references are matched by column name only (the stats carry no
// alias), so pred must reference a single table.
func Selectivity(ts *TableStats, pred expr.Expr) float64 {
	if pred == nil {
		return 1
	}
	if b, ok := pred.(*expr.Binary); ok && b.Op == "OR" {
		l := Selectivity(ts, b.L)
		r := Selectivity(ts, b.R)
		s := l + r - l*r
		if s > 1 {
			return 1
		}
		return s
	}
	if expr.IsFalse(pred) {
		return 0
	}
	if expr.IsTrue(pred) {
		return 1
	}
	ranges, residual := expr.AnalyzeConjuncts(expr.Conjuncts(pred))
	sel := 1.0
	for colKey, r := range ranges {
		name := colKey[strings.LastIndex(colKey, ".")+1:]
		sel *= rangeSelectivity(ts.Col(name), r, ts.Rows)
	}
	for _, e := range residual {
		sel *= residualSelectivity(e)
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func residualSelectivity(e expr.Expr) float64 {
	switch t := e.(type) {
	case *expr.Binary:
		switch t.Op {
		case "=":
			return defaultEqSel
		case "<", "<=", ">", ">=":
			return defaultRangeSel
		case "<>":
			return 1 - defaultEqSel
		}
	case *expr.IsNull:
		if t.Not {
			return 0.95
		}
		return 0.05
	}
	return defaultOtherSel
}

func rangeSelectivity(cs *ColumnStats, r *expr.Range, rows int64) float64 {
	if r.Empty {
		return 0
	}
	if cs == nil {
		if r.Set != nil {
			return math.Min(1, defaultEqSel*float64(len(r.Set)))
		}
		return defaultRangeSel
	}
	if r.Set != nil {
		if cs.NDV <= 0 {
			return math.Min(1, defaultEqSel*float64(len(r.Set)))
		}
		inDomain := 0
		for _, v := range r.Set {
			if (cs.Min.IsNull() || ge(v, cs.Min)) && (cs.Max.IsNull() || le(v, cs.Max)) {
				inDomain++
			}
		}
		return math.Min(1, float64(inDomain)/float64(cs.NDV))
	}
	if len(r.NotIn) > 0 && !r.HasLo && !r.HasHi {
		if cs.NDV <= 0 {
			return 1 - defaultEqSel
		}
		s := 1 - float64(len(r.NotIn))/float64(cs.NDV)
		if s < 0 {
			return 0
		}
		return s
	}
	if cs.Hist != nil {
		return cs.Hist.FracInRange(r)
	}
	// Interpolate against min/max when numeric.
	if !cs.Min.IsNull() && !cs.Max.IsNull() && numeric(cs.Min) && numeric(cs.Max) {
		span := cs.Max.AsFloat() - cs.Min.AsFloat()
		if span <= 0 {
			if r.Admits(cs.Min) {
				return 1
			}
			return 0
		}
		lo, hi := cs.Min.AsFloat(), cs.Max.AsFloat()
		if r.HasLo && numeric(r.Lo) && r.Lo.AsFloat() > lo {
			lo = r.Lo.AsFloat()
		}
		if r.HasHi && numeric(r.Hi) && r.Hi.AsFloat() < hi {
			hi = r.Hi.AsFloat()
		}
		if hi <= lo {
			return 0
		}
		return (hi - lo) / span
	}
	return defaultRangeSel
}
