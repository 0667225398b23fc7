package main

import (
	"math"
	"sort"

	"qtrade/internal/value"
)

// percentile returns the q-quantile (0..1) of vals by linear interpolation
// between closest ranks. vals is sorted in place.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals, counting
// overlapping stretches once. Parallel RFB and fetch fan-out make a query's
// wait the union of its calls, not their sum. ivs is sorted in place.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curEnd int64
	first := true
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		switch {
		case first || iv.start >= curEnd:
			total += iv.end - iv.start
			curEnd = iv.end
			first = false
		case iv.end > curEnd:
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// digest fingerprints a query answer without allocating, so verifying every
// answer inside the measured window does not show up in allocs_per_query.
// rows and set identify the answer as a multiset; seq also depends on row
// order and is compared only for ORDER BY queries.
type digest struct {
	rows int
	set  uint64
	seq  uint64
}

func (d *digest) add(r value.Row) {
	h := hashRow(r)
	d.rows++
	d.set += h
	d.seq = mix64(d.seq*0x100000001b3 ^ h)
}

func (d digest) equal(o digest, ordered bool) bool {
	return d.rows == o.rows && d.set == o.set && (!ordered || d.seq == o.seq)
}

func digestOf(rows []value.Row) digest {
	var d digest
	for _, r := range rows {
		d.add(r)
	}
	return d
}

// hashRow hashes one row. Integral floats hash like ints: a distributed plan
// may deliver SUM over floats merged from partial sums where the oracle
// delivers it in one piece, and both are the same SQL value.
func hashRow(r value.Row) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range r {
		x, tag := uint64(0), uint64(v.K)
		switch v.K {
		case value.Int:
			x = uint64(v.I)
		case value.Float:
			if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1<<62 {
				x, tag = uint64(int64(v.F)), uint64(value.Int)
			} else {
				x = math.Float64bits(v.F)
			}
		case value.Str:
			x = 0xcbf29ce484222325
			for i := 0; i < len(v.S); i++ {
				x = (x ^ uint64(v.S[i])) * 0x100000001b3
			}
		case value.Bool:
			if v.B {
				x = 1
			}
		}
		h = mix64(h ^ mix64(x) ^ tag<<56)
	}
	return h
}

// mix64 is the splitmix64 finalizer: it spreads every input bit over the
// output so that sums of row hashes behave as a multiset hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
