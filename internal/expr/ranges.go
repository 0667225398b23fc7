package expr

import (
	"strings"

	"qtrade/internal/value"
)

// Range is the set of values a single column may take under a conjunction of
// simple predicates. It is kept in one of two canonical forms:
//
//   - a finite set: Set != nil (interval and exclusions folded in), or
//   - an interval with optional bounds plus a list of excluded points.
//
// Range analysis underpins partition pruning, the seller rewrite algorithm
// (dropping partitions whose defining predicate contradicts the query), and
// the buyer predicates analyser's redundancy elimination.
type Range struct {
	Set []value.Value // finite form; nil means "interval form"

	HasLo, HasHi bool
	Lo, Hi       value.Value
	LoInc, HiInc bool
	NotIn        []value.Value

	Empty bool
}

// PointRange returns the range holding exactly v.
func PointRange(v value.Value) *Range { return &Range{Set: []value.Value{v}} }

// SetRange returns the finite range over the given values.
func SetRange(vs []value.Value) *Range {
	out := &Range{Set: append([]value.Value(nil), vs...)}
	out.normalize()
	return out
}

// IntervalRange builds lo..hi with the given bound inclusivity; a missing
// bound is expressed by hasLo/hasHi=false.
func IntervalRange(hasLo bool, lo value.Value, loInc bool, hasHi bool, hi value.Value, hiInc bool) *Range {
	r := &Range{HasLo: hasLo, Lo: lo, LoInc: loInc, HasHi: hasHi, Hi: hi, HiInc: hiInc}
	r.normalize()
	return r
}

// normalize folds interval/exclusion constraints into Set form when Set is
// non-nil and detects empty intervals.
func (r *Range) normalize() {
	if r.Empty {
		return
	}
	if r.Set != nil {
		kept := r.Set[:0]
		for _, v := range r.Set {
			if r.admitsInterval(v) && !inList(r.NotIn, v) {
				kept = append(kept, v)
			}
		}
		r.Set = dedupValues(kept)
		r.HasLo, r.HasHi, r.NotIn = false, false, nil
		if len(r.Set) == 0 {
			r.Empty = true
		}
		return
	}
	if r.HasLo && r.HasHi {
		c, ok := value.Compare(r.Lo, r.Hi)
		if ok && (c > 0 || (c == 0 && !(r.LoInc && r.HiInc))) {
			r.Empty = true
			return
		}
		if ok && c == 0 && r.LoInc && r.HiInc {
			// Degenerate interval is the point {Lo}.
			r.Set = []value.Value{r.Lo}
			r.normalize()
			return
		}
	}
}

// admitsInterval reports whether v satisfies the interval bounds (ignoring
// Set and NotIn).
func (r *Range) admitsInterval(v value.Value) bool {
	if r.HasLo {
		c, ok := value.Compare(v, r.Lo)
		if !ok || c < 0 || (c == 0 && !r.LoInc) {
			return false
		}
	}
	if r.HasHi {
		c, ok := value.Compare(v, r.Hi)
		if !ok || c > 0 || (c == 0 && !r.HiInc) {
			return false
		}
	}
	return true
}

// Admits reports whether a single value satisfies the range.
func (r *Range) Admits(v value.Value) bool {
	if r.Empty {
		return false
	}
	if r.Set != nil {
		return inList(r.Set, v)
	}
	return r.admitsInterval(v) && !inList(r.NotIn, v)
}

func inList(list []value.Value, v value.Value) bool {
	for _, x := range list {
		if value.Equal(x, v) {
			return true
		}
	}
	return false
}

func dedupValues(list []value.Value) []value.Value {
	var out []value.Value
	for _, v := range list {
		if !inList(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// Intersect returns the range satisfying both r and o.
func Intersect(r, o *Range) *Range {
	out := intersect(r, o)
	return &out
}

// intersect is Intersect by value, so a caller that only asks whether the
// result is empty allocates nothing for it.
func intersect(r, o *Range) Range {
	if r.Empty || o.Empty {
		return Range{Empty: true}
	}
	if r.Set != nil || o.Set != nil {
		fin, other := r, o
		if r.Set == nil {
			fin, other = o, r
		}
		var keep []value.Value
		for _, v := range fin.Set {
			if other.Admits(v) {
				keep = append(keep, v)
			}
		}
		if len(keep) == 0 {
			return Range{Empty: true, Set: []value.Value{}}
		}
		return Range{Set: keep}
	}
	out := Range{
		HasLo: r.HasLo, Lo: r.Lo, LoInc: r.LoInc,
		HasHi: r.HasHi, Hi: r.Hi, HiInc: r.HiInc,
		NotIn: append(append([]value.Value(nil), r.NotIn...), o.NotIn...),
	}
	if o.HasLo {
		if !out.HasLo {
			out.HasLo, out.Lo, out.LoInc = true, o.Lo, o.LoInc
		} else if c, ok := value.Compare(o.Lo, out.Lo); ok && (c > 0 || (c == 0 && !o.LoInc)) {
			out.Lo, out.LoInc = o.Lo, o.LoInc
		}
	}
	if o.HasHi {
		if !out.HasHi {
			out.HasHi, out.Hi, out.HiInc = true, o.Hi, o.HiInc
		} else if c, ok := value.Compare(o.Hi, out.Hi); ok && (c < 0 || (c == 0 && !o.HiInc)) {
			out.Hi, out.HiInc = o.Hi, o.HiInc
		}
	}
	out.normalize()
	if out.Set != nil {
		// normalize may have collapsed to a point; re-apply exclusions.
		out.normalize()
	}
	return out
}

// Contains reports whether r is a superset of o (every value admitted by o is
// admitted by r). It is conservative: false negatives are possible when the
// relationship cannot be decided from the constraint forms.
func (r *Range) Contains(o *Range) bool {
	if o.Empty {
		return true
	}
	if r.Empty {
		return false
	}
	if o.Set != nil {
		for _, v := range o.Set {
			if !r.Admits(v) {
				return false
			}
		}
		return true
	}
	if r.Set != nil {
		// Finite r cannot contain an (infinite or undecidable) interval o.
		return false
	}
	// Interval vs interval: r's bounds must be no tighter than o's.
	if r.HasLo {
		if !o.HasLo {
			return false
		}
		c, ok := value.Compare(r.Lo, o.Lo)
		if !ok || c > 0 || (c == 0 && !r.LoInc && o.LoInc) {
			return false
		}
	}
	if r.HasHi {
		if !o.HasHi {
			return false
		}
		c, ok := value.Compare(r.Hi, o.Hi)
		if !ok || c < 0 || (c == 0 && !r.HiInc && o.HiInc) {
			return false
		}
	}
	// Every point r excludes must also be excluded by o.
	for _, v := range r.NotIn {
		if o.Admits(v) {
			return false
		}
	}
	return true
}

// rangeOfConjunct recognizes a simple single-column predicate and returns the
// column and its range. ok=false means the predicate is not range-expressible
// (it becomes a residual conjunct): NULL is comparable with nothing, so a
// NULL literal never bounds a range.
func rangeOfConjunct(e Expr) (c *Column, r *Range, ok bool) {
	switch t := e.(type) {
	case *Binary:
		c, lit, op, good := splitColLit(t)
		if !good {
			return nil, nil, false
		}
		switch op {
		case "=":
			return c, PointRange(lit), true
		case "<>":
			return c, &Range{NotIn: []value.Value{lit}}, true
		case "<":
			return c, IntervalRange(false, value.Value{}, false, true, lit, false), true
		case "<=":
			return c, IntervalRange(false, value.Value{}, false, true, lit, true), true
		case ">":
			return c, IntervalRange(true, lit, false, false, value.Value{}, false), true
		case ">=":
			return c, IntervalRange(true, lit, true, false, value.Value{}, false), true
		}
		return nil, nil, false
	case *In:
		c, okc := t.X.(*Column)
		if !okc {
			return nil, nil, false
		}
		var vs []value.Value
		for _, item := range t.List {
			l, okl := item.(*Lit)
			if !okl || t.Not && l.V.IsNull() {
				return nil, nil, false
			}
			if !l.V.IsNull() {
				vs = append(vs, l.V)
			}
		}
		if t.Not {
			return c, &Range{NotIn: vs}, true
		}
		return c, SetRange(vs), true
	case *Between:
		c, okc := t.X.(*Column)
		lo, okl := t.Lo.(*Lit)
		hi, okh := t.Hi.(*Lit)
		if t.Not || !okc || !okl || !okh || lo.V.IsNull() || hi.V.IsNull() {
			return nil, nil, false
		}
		return c, IntervalRange(true, lo.V, true, true, hi.V, true), true
	}
	return nil, nil, false
}

// splitColLit decomposes a comparison between a column and a literal in
// either order, normalizing the operator so the column is on the left.
func splitColLit(b *Binary) (c *Column, lit value.Value, op string, ok bool) {
	flip := map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}
	if _, isCmp := flip[b.Op]; !isCmp {
		return nil, value.Value{}, "", false
	}
	if c, okc := b.L.(*Column); okc {
		if l, okl := b.R.(*Lit); okl && !l.V.IsNull() {
			return c, l.V, b.Op, true
		}
	}
	if c, okc := b.R.(*Column); okc {
		if l, okl := b.L.(*Lit); okl && !l.V.IsNull() {
			return c, l.V, flip[b.Op], true
		}
	}
	return nil, value.Value{}, "", false
}

// AnalyzeConjuncts splits a conjunct list into per-column ranges plus the
// residual conjuncts that are not range-expressible.
func AnalyzeConjuncts(conj []Expr) (ranges map[string]*Range, residual []Expr) {
	ranges = map[string]*Range{}
	for _, e := range conj {
		c, r, ok := rangeOfConjunct(e)
		if !ok {
			residual = append(residual, e)
			continue
		}
		col := ColKey(c)
		if prev, exists := ranges[col]; exists {
			ranges[col] = Intersect(prev, r)
		} else {
			ranges[col] = r
		}
	}
	return ranges, residual
}

// Selection is a conjunction over the columns of one relation, analysed once
// for the partition test: its simplified conjuncts as per-column ranges, by
// bare lower-cased column name (qualifiers are ignored — every column is the
// one relation's). A query's selections on a relation and a partition's
// defining predicate are both Selections; Disjoint compares them.
type Selection struct {
	// False: the conjunction folds to FALSE or confines a column to nothing.
	False  bool
	ranges map[string]*Range
}

// AnalyzeSelection analyses the conjunction of conj. A conjunct that already
// is a column compared with literals is read as it stands, sharing nothing
// with the result but its literals' values; only the others are simplified,
// which copies them. The expressions are not changed.
func AnalyzeSelection(conj []Expr) *Selection {
	s := &Selection{ranges: map[string]*Range{}}
	var rest []Expr
	for _, e := range conj {
		if c, r, ok := rangeOfConjunct(e); ok {
			s.confine(c, r)
		} else {
			rest = append(rest, e)
		}
	}
	// Transform rebuilds every inner node and simplifyNode reads no qualifier,
	// so neither Clone nor Unqualify is needed first.
	for _, e := range Conjuncts(Transform(And(rest), simplifyNode)) {
		if IsFalse(e) {
			s.False = true
		} else if c, r, ok := rangeOfConjunct(e); ok {
			s.confine(c, r)
		}
	}
	return s
}

func (s *Selection) confine(c *Column, r *Range) {
	col := strings.ToLower(c.Name)
	if prev := s.ranges[col]; prev != nil {
		r = Intersect(prev, r)
	}
	s.ranges[col] = r
	s.False = s.False || r.Empty
}

// Disjoint reports whether no row can satisfy both selections: one is false
// on its own, or they confine a shared column to ranges that do not meet. It
// is sound, not complete, exactly as Unsatisfiable of their conjunction is.
func (s *Selection) Disjoint(o *Selection) bool {
	if s.False || o.False {
		return true
	}
	if len(o.ranges) < len(s.ranges) {
		s, o = o, s
	}
	for col, r := range s.ranges {
		if or := o.ranges[col]; or != nil {
			if both := intersect(r, or); both.Empty {
				return true
			}
		}
	}
	return false
}

// Unsatisfiable reports whether the predicate is provably always false. It
// only inspects single-column ranges over the top-level conjunction, so a
// false return does not prove satisfiability.
func Unsatisfiable(e Expr) bool {
	if e == nil {
		return false
	}
	if l, ok := e.(*Lit); ok {
		return !l.V.IsNull() && !l.V.Truth() && l.V.K == value.Bool
	}
	ranges, _ := AnalyzeConjuncts(Conjuncts(e))
	for _, r := range ranges {
		if r.Empty {
			return true
		}
	}
	return false
}

// Implies reports whether predicate p implies predicate q (p ⇒ q), treating
// nil as TRUE. The test is conservative (sound, not complete): it succeeds
// when every range-expressible conjunct of q is subsumed by p's ranges and
// every residual conjunct of q appears verbatim in p.
func Implies(p, q Expr) bool {
	if q == nil {
		return true
	}
	if Unsatisfiable(p) {
		return true
	}
	pRanges, _ := AnalyzeConjuncts(Conjuncts(p))
	pSeen := map[string]bool{}
	for _, c := range Conjuncts(p) {
		pSeen[c.String()] = true
	}
	qRanges, qResidual := AnalyzeConjuncts(Conjuncts(q))
	for _, c := range qResidual {
		if !pSeen[c.String()] {
			return false
		}
	}
	for col, qr := range qRanges {
		pr, ok := pRanges[col]
		if !ok {
			return false
		}
		if !qr.Contains(pr) {
			return false
		}
	}
	return true
}
