package sqlparse

import (
	"math/rand"
	"strings"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/value"
)

func TestParseSimpleSelect(t *testing.T) {
	s := MustParseSelect("SELECT custid, custname FROM customer WHERE office = 'Corfu'")
	if len(s.Items) != 2 || s.Items[0].Expr.String() != "custid" {
		t.Fatalf("items: %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Name != "customer" {
		t.Fatalf("from: %+v", s.From)
	}
	if s.Where.String() != "office = 'Corfu'" {
		t.Fatalf("where: %s", s.Where)
	}
	if s.Limit != -1 || s.Distinct {
		t.Fatal("defaults wrong")
	}
}

func TestParsePaperQuery(t *testing.T) {
	// The motivating query of the paper (total bills in Corfu and Myconos).
	q := `SELECT c.office, SUM(i.charge) AS total
	      FROM customer c, invoiceline i
	      WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
	      GROUP BY c.office`
	s := MustParseSelect(q)
	if len(s.From) != 2 || s.From[0].Binding() != "c" || s.From[1].Binding() != "i" {
		t.Fatalf("from: %+v", s.From)
	}
	if !s.Aggregates() {
		t.Fatal("must detect aggregate")
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].String() != "c.office" {
		t.Fatalf("group by: %v", s.GroupBy)
	}
	if s.Items[1].Alias != "total" {
		t.Fatalf("alias: %+v", s.Items[1])
	}
}

func TestParseJoinSyntaxNormalized(t *testing.T) {
	s := MustParseSelect("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y > 1")
	if len(s.From) != 2 {
		t.Fatalf("from: %+v", s.From)
	}
	conj := expr.Conjuncts(s.Where)
	if len(conj) != 2 {
		t.Fatalf("where conjuncts: %v", s.Where)
	}
	s2 := MustParseSelect("SELECT * FROM a INNER JOIN b ON a.x = b.x")
	if len(s2.From) != 2 || s2.Where == nil {
		t.Fatal("inner join")
	}
}

// A text holds one SELECT: a union of partitions is the buyer's plan
// operator, so both chain forms are refused at their first UNION.
func TestParseSelectRefusesAUnionChain(t *testing.T) {
	for _, q := range []string{
		"SELECT x FROM a UNION ALL SELECT x FROM b",
		"SELECT x FROM a UNION SELECT x FROM b",
	} {
		_, err := ParseSelect(q)
		if err == nil || !strings.Contains(err.Error(), `unexpected trailing input "UNION"`) {
			t.Errorf("ParseSelect(%q) = %v, want it refused at UNION", q, err)
		}
	}
}

func TestParseOrderLimitDistinct(t *testing.T) {
	s := MustParseSelect("SELECT DISTINCT x FROM a ORDER BY x DESC, y LIMIT 10")
	if !s.Distinct || s.Limit != 10 {
		t.Fatal("distinct/limit")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order: %+v", s.OrderBy)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct{ in, out string }{
		{"a.x = 1 AND b.y = 2 OR c.z = 3", "a.x = 1 AND b.y = 2 OR c.z = 3"},
		{"a.x = 1 AND (b.y = 2 OR c.z = 3)", "a.x = 1 AND (b.y = 2 OR c.z = 3)"},
		{"NOT a.x < 5", "NOT (a.x < 5)"},
		{"x BETWEEN 1 AND 10", "x BETWEEN 1 AND 10"},
		{"x NOT BETWEEN 1 AND 10", "x NOT BETWEEN 1 AND 10"},
		{"x IN (1, 2, 3)", "x IN (1, 2, 3)"},
		{"x NOT IN ('a')", "x NOT IN ('a')"},
		{"x IS NULL", "x IS NULL"},
		{"x IS NOT NULL", "x IS NOT NULL"},
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"-x + 1", "-(x) + 1"},
		{"-5", "-5"},
		{"1.5e2", "150.0"},
		{"x <> 'it''s'", "x <> 'it''s'"},
		{"x != 3", "x <> 3"},
		{"SUM(x) > 10", "SUM(x) > 10"},
		{"COUNT(*) = 1", "COUNT(*) = 1"},
		{"AVG(DISTINCT x) < 2.5", "AVG(DISTINCT x) < 2.5"},
		{"x % 3 = 0", "x % 3 = 0"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.in)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.in, err)
			continue
		}
		if e.String() != c.out {
			t.Errorf("ParseExpr(%q) = %q, want %q", c.in, e, c.out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM a WHERE",
		"SELECT x FROM a GROUP x",
		"SELECT x FROM a LIMIT -1",
		"SELECT x FROM a LIMIT y",
		"SELECT x FROM a trailing garbage (",
		"SELECT SUM(*) FROM a",
		"SELECT x FROM a WHERE x IN ()",
		"SELECT x FROM a WHERE x BETWEEN 1",
		"SELECT x FROM 'str'",
		"SELECT x FROM a WHERE 'unterminated",
		"SELECT x FROM a JOIN b",
		"SELECT x FROM a WHERE x IS 5",
	}
	for _, q := range bad {
		if _, err := ParseSelect(q); err == nil {
			t.Errorf("ParseSelect(%q) must fail", q)
		}
	}
}

func TestLexerQuotedIdentAndEscapes(t *testing.T) {
	s := MustParseSelect(`SELECT "Weird Name" FROM t WHERE x = 'o''clock'`)
	if c := s.Items[0].Expr.(*expr.Column); c.Name != "Weird Name" || c.String() != `"Weird Name"` {
		t.Errorf("quoted ident: name %q prints as %s", c.Name, c)
	}
	// A name that needs its quotes keeps them through a round trip, and so
	// does one that spells a keyword; a plain name prints bare.
	for _, q := range []string{
		`SELECT "Weird Name" FROM t WHERE x = 'o''clock'`,
		`SELECT "order"."select" AS "from", x AS "1x" FROM "order", "Two Words" w`,
		`SELECT t.custid AS n FROM customer t`,
	} {
		if text := MustParseSelect(q).SQL(); text != q {
			t.Errorf("%s prints as %s", q, text)
		}
	}
	lit := s.Where.(*expr.Binary).R.(*expr.Lit)
	if lit.V.S != "o'clock" {
		t.Errorf("escape: %q", lit.V.S)
	}
}

// roundTripQueries are the hand-written print → parse cases; FuzzPrintParse
// starts from them too.
var roundTripQueries = []string{
	"SELECT * FROM customer",
	"SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office",
	"SELECT DISTINCT x AS y FROM a, b WHERE a.k = b.k ORDER BY x DESC LIMIT 5",
	// Names that spell UNION or ALL keep their quotes: bare, the parser
	// reads them as keywords.
	`SELECT "union" FROM "all"`,
	`SELECT "union".x AS "all" FROM t "union"`,
	"SELECT x FROM a WHERE x BETWEEN 1 AND 2 AND y IN (1, 2) AND z IS NOT NULL",
	"SELECT x FROM a HAVING COUNT(*) > 1",
}

func TestRoundTripSQL(t *testing.T) {
	for _, q := range roundTripQueries {
		s1 := MustParseSelect(q)
		sql1 := s1.SQL()
		s2, err := ParseSelect(sql1)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", sql1, err)
			continue
		}
		if s2.SQL() != sql1 {
			t.Errorf("round trip unstable:\n  1: %s\n  2: %s", sql1, s2.SQL())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustParseSelect("SELECT x FROM a WHERE x = 1 GROUP BY x HAVING COUNT(*) > 1 ORDER BY x")
	before := s.SQL()
	c := s.Clone()
	if c.Where != s.Where {
		t.Error("Clone copied an expression: expressions are shared")
	}
	c.Where = expr.Cmp(">", c.Where.(*expr.Binary).L, c.Where.(*expr.Binary).R)
	c.From[0].Name = "zzz"
	c.GroupBy = append(c.GroupBy, expr.NewColumn("", "y"))
	c.OrderBy[0].Desc = true
	c.Items[0].Alias = "w"
	if got := s.SQL(); got != before {
		t.Fatalf("writing the clone's own fields changed the original: %s", got)
	}
	if c.SQL() == s.SQL() {
		t.Fatal("clone should have diverged")
	}
}

func TestTableBindingsAndFindFrom(t *testing.T) {
	s := MustParseSelect("SELECT * FROM customer c, invoiceline")
	if s.FindFrom("C") == nil || s.FindFrom("customer") != nil {
		t.Fatal("FindFrom must match binding, not base name, case-insensitively")
	}
}

func TestAliasWithoutAS(t *testing.T) {
	s := MustParseSelect("SELECT x total FROM t alias1")
	if s.Items[0].Alias != "total" || s.From[0].Alias != "alias1" {
		t.Fatalf("aliases: %+v %+v", s.Items[0], s.From[0])
	}
}

// A word is classified once, when it is lexed: keywords and aggregate names
// match in any case, and an identifier that merely starts like one, or is
// longer than any of them, is an identifier.
func TestKeywordsInAnyCase(t *testing.T) {
	const upper = "SELECT DISTINCT t.selection AS distinctness, COUNT(*) AS n FROM t WHERE t.a NOT IN (1, 2) AND t.b NOT BETWEEN 1 AND 2 AND t.c IS NOT NULL GROUP BY t.selection ORDER BY n DESC LIMIT 3"
	mixed := "sElEcT dIsTiNcT t.selection aS distinctness, cOuNt(*) n fRoM t wHeRe t.a nOt iN (1, 2) aNd t.b NoT bEtWeEn 1 anD 2 and t.c iS nOt nUlL gRoUp bY t.selection oRdEr By n dEsC lImIt 3"
	if got := MustParseSelect(mixed).SQL(); got != MustParseSelect(upper).SQL() {
		t.Fatalf("mixed case parsed to\n%s\nwant\n%s", got, MustParseSelect(upper).SQL())
	}
	for text, want := range map[string]string{"between": "BETWEEN", "Sum": "SUM", "distinct": "DISTINCT",
		"distincts": "", "selec": "", "summ": "", "": "", "sélect": ""} {
		if got := wordOf(text); got != want {
			t.Errorf("wordOf(%q) = %q, want %q", text, got, want)
		}
	}
	if _, err := ParseSelect("SELECT x FROM from"); err == nil {
		t.Error("a keyword was accepted as a table name")
	}
}

func TestNumbersAndLiterals(t *testing.T) {
	e := MustParseExpr("x = 2.5")
	lit := e.(*expr.Binary).R.(*expr.Lit)
	if lit.V.K != value.Float || lit.V.F != 2.5 {
		t.Fatalf("float literal: %+v", lit.V)
	}
	e = MustParseExpr("x = NULL")
	if !e.(*expr.Binary).R.(*expr.Lit).V.IsNull() {
		t.Fatal("NULL literal")
	}
	e = MustParseExpr("x = TRUE AND y = FALSE")
	if !strings.Contains(e.String(), "TRUE") {
		t.Fatal("bool literals")
	}
}

// randomQuery builds a random valid query: up to three of the tables, a
// column of each, and up to two WHERE conjuncts.
func randomQuery(r *rand.Rand) string {
	tables := []string{"customer", "invoiceline", "orders"}
	cols := []string{"a", "b", "c"}
	randExpr := func() string {
		tbl := tables[r.Intn(3)][:1]
		c := tbl + "." + cols[r.Intn(3)]
		switch r.Intn(4) {
		case 0:
			return c + " = " + []string{"1", "'x'", "2.5"}[r.Intn(3)]
		case 1:
			return c + " IN (1, 2)"
		case 2:
			return c + " BETWEEN 1 AND 9"
		default:
			return c + " IS NOT NULL"
		}
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	n := 1 + r.Intn(3)
	for j := 0; j < n; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tables[j%3][:1] + "." + cols[r.Intn(3)])
	}
	sb.WriteString(" FROM ")
	for j := 0; j < n; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tables[j%3] + " " + tables[j%3][:1])
	}
	if r.Intn(2) == 0 {
		sb.WriteString(" WHERE " + randExpr())
		if r.Intn(2) == 0 {
			sb.WriteString(" AND " + randExpr())
		}
	}
	return sb.String()
}

// TestQuickRoundTripRandomQueries checks print->parse->print stability over
// random queries (property test for the printer/parser pair).
func TestQuickRoundTripRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		q := randomQuery(r)
		s1, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		s2, err := ParseSelect(s1.SQL())
		if err != nil {
			t.Fatalf("re-parse %q: %v", s1.SQL(), err)
		}
		if s1.SQL() != s2.SQL() {
			t.Fatalf("unstable round trip: %q vs %q", s1.SQL(), s2.SQL())
		}
	}
}
