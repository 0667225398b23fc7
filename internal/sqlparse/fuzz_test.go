package sqlparse

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/value"
)

// FuzzPrintParse: what the printer writes, the parser reads back as the same
// statement. Compensations and partial queries cross the wire as printed SQL,
// so a text that parses must print to a text that parses again to the same
// tree — parse → print → parse is a fixpoint — and prints the same twice.
// The first print already keeps every literal's kind and value: a seller
// reads the text once, so a 2.0 printed as 2 computes integer arithmetic.
// A name that needs its quotes, or spells a keyword, keeps them.
func FuzzPrintParse(f *testing.F) {
	for _, q := range roundTripQueries {
		f.Add(q)
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		f.Add(randomQuery(r))
	}
	// The compensation shapes a view offer ships (views.TestCompensationCarriesTheTail).
	for _, q := range []string{
		"SELECT DISTINCT custid AS custid FROM bigcharges WHERE charge > 8 ORDER BY custid DESC LIMIT 1",
		"SELECT DISTINCT COUNT(*) AS n FROM bigcharges GROUP BY custid ORDER BY n LIMIT 2",
		"SELECT DISTINCT office, SUM(total) AS total FROM officecusttotals GROUP BY office ORDER BY SUM(total) DESC, office LIMIT 1",
		"SELECT DISTINCT office FROM officecusttotals WHERE total > 10 ORDER BY office LIMIT 5",
		"SELECT office, SUM(charge) AS total FROM officecharges WHERE charge > 20 GROUP BY office HAVING SUM(charge) > 1.5 ORDER BY COUNT(*) DESC, office",
		// What the first runs found: -0.0 printed as -0 read back as 0, and a
		// keyword table alias after AS printed bare.
		"SELECT -0.0 FROM t",
		"SELECT x FROM t AS select",
		// Names that need their quotes, and keywords spelled as names.
		`SELECT "Weird Name", "order".x AS "from" FROM "order", t "Two Words" WHERE "Two Words"."NULL" IS NULL`,
		`SELECT "" FROM "1t" GROUP BY "" ORDER BY "a.b"`,
		// The smallest integer prints as a minus before digits int64 cannot
		// hold alone, and a fold can make it.
		"SELECT -9223372036854775808 FROM t",
		"SELECT x FROM t WHERE x > -9223372036854775807 - 1",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		s1, err := ParseSelect(sql)
		if err != nil {
			return
		}
		text := s1.SQL()
		s2, err := ParseSelect(text)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", sql, text, err)
		}
		if a, b := literals(s1), literals(s2); !reflect.DeepEqual(a, b) {
			t.Fatalf("%q prints as %q: literals %s read back as %s", sql, text, kinded(a), kinded(b))
		}
		if again := s2.SQL(); again != text {
			t.Fatalf("%q prints as %q, then as %q", sql, text, again)
		}
		if s3 := MustParseSelect(text); !reflect.DeepEqual(s2, s3) {
			t.Fatalf("%q: parsing %q twice gives two trees", sql, text)
		}
		// What Simplify folds ships as SQL as well, so it prints as a text
		// that parses. An infinite float has no spelling the parser reads,
		// so a fold that overflows to one is left out.
		for _, e := range exprs(s1) {
			folded := expr.Simplify(e)
			if infinite(folded) {
				continue
			}
			if _, err := ParseExpr(folded.String()); err != nil {
				t.Fatalf("%q: %s folds to %s, which does not parse: %v", sql, e, folded, err)
			}
		}
	})
}

// exprs lists a statement's expressions in print order.
func exprs(s *Select) []expr.Expr {
	var out []expr.Expr
	add := func(e expr.Expr) {
		if e != nil { // SELECT *, no WHERE, no HAVING
			out = append(out, e)
		}
	}
	for _, it := range s.Items {
		add(it.Expr)
	}
	add(s.Where)
	for _, g := range s.GroupBy {
		add(g)
	}
	add(s.Having)
	for _, o := range s.OrderBy {
		add(o.Expr)
	}
	return out
}

// literals lists a statement's literals in print order.
func literals(s *Select) []value.Value {
	var out []value.Value
	for _, e := range exprs(s) {
		expr.Walk(e, func(x expr.Expr) bool {
			if l, ok := x.(*expr.Lit); ok {
				out = append(out, l.V)
			}
			return true
		})
	}
	return out
}

// infinite reports whether e holds an infinite float literal.
func infinite(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if l, ok := x.(*expr.Lit); ok && l.V.K == value.Float && math.IsInf(l.V.F, 0) {
			found = true
		}
		return !found
	})
	return found
}

func kinded(vs []value.Value) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.K.String() + " " + v.String()
	}
	return strings.Join(out, ", ")
}
