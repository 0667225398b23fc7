package node

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// fullNode holds the complete tiny dataset on one node, so every query in
// the logic battery runs the whole parse → optimize → execute stack.
//
//	customer: (1 alice Corfu) (2 bob Corfu) (3 carol Myconos) (4 dave Athens) (5 eve Myconos)
//	invoiceline: (100,1,1,10) (100,2,1,5) (101,1,2,7) (102,1,3,20) (103,1,5,2) (104,1,4,100)
func fullNode(t *testing.T) *Node {
	t.Helper()
	sch := telcoSchema()
	n := New(Config{ID: "oracle", Schema: sch})
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	for _, p := range []string{"corfu", "myconos"} {
		if _, err := n.Store().CreateFragment(cust, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Store().CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		part   string
		id     int64
		name   string
		office string
	}{
		{"corfu", 1, "alice", "Corfu"},
		{"corfu", 2, "bob", "Corfu"},
		{"myconos", 3, "carol", "Myconos"},
		{"myconos", 5, "eve", "Myconos"},
	}
	for _, r := range rows {
		if err := n.Store().Insert("customer", r.part,
			value.Row{value.NewInt(r.id), value.NewStr(r.name), value.NewStr(r.office)}); err != nil {
			t.Fatal(err)
		}
	}
	lines := [][4]float64{
		{100, 1, 1, 10}, {100, 2, 1, 5}, {101, 1, 2, 7},
		{102, 1, 3, 20}, {103, 1, 5, 2},
	}
	for _, l := range lines {
		if err := n.Store().Insert("invoiceline", "p0", value.Row{
			value.NewInt(int64(l[0])), value.NewInt(int64(l[1])),
			value.NewInt(int64(l[2])), value.NewFloat(l[3]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// render canonicalizes a result to sorted rows of space-joined cells.
func render(resp trading.ExecResp) []string {
	out := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			switch v.K {
			case value.Str:
				cells[j] = v.S
			case value.Float:
				cells[j] = trimFloat(v.F)
			case value.Null:
				cells[j] = "∅"
			default:
				cells[j] = v.String()
			}
		}
		out[i] = strings.Join(cells, " ")
	}
	sort.Strings(out)
	return out
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

func TestSQLLogicBattery(t *testing.T) {
	n := fullNode(t)
	cases := []struct {
		q    string
		want []string // sorted canonical rows; nil means only assert row count
		rows int
	}{
		// Projection and filters.
		{q: "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'",
			want: []string{"alice", "bob"}},
		{q: "SELECT c.custname FROM customer c WHERE c.custid > 2 AND c.custid <= 5",
			want: []string{"carol", "eve"}},
		{q: "SELECT c.custname FROM customer c WHERE c.custid IN (1, 5)",
			want: []string{"alice", "eve"}},
		{q: "SELECT c.custname FROM customer c WHERE c.custid NOT IN (1, 5)",
			want: []string{"bob", "carol"}},
		{q: "SELECT c.custname FROM customer c WHERE c.custid BETWEEN 2 AND 3",
			want: []string{"bob", "carol"}},
		{q: "SELECT c.custname FROM customer c WHERE NOT c.office = 'Corfu'",
			want: []string{"carol", "eve"}},
		{q: "SELECT c.custname FROM customer c WHERE c.office = 'Corfu' OR c.custid = 5",
			want: []string{"alice", "bob", "eve"}},
		// Arithmetic in projections and predicates.
		{q: "SELECT c.custid * 10 + 1 FROM customer c WHERE c.custid = 3",
			want: []string{"31"}},
		{q: "SELECT c.custname FROM customer c WHERE c.custid % 2 = 0",
			want: []string{"bob"}},
		// Joins.
		{q: "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND i.charge > 9",
			want: []string{"alice 10", "carol 20"}},
		{q: "SELECT c.custname FROM customer c JOIN invoiceline i ON c.custid = i.custid WHERE i.charge < 3",
			want: []string{"eve"}},
		// Self join: pairs of customers in the same office.
		{q: "SELECT a.custname, b.custname FROM customer a, customer b WHERE a.office = b.office AND a.custid < b.custid",
			want: []string{"alice bob", "carol eve"}},
		// Aggregation.
		{q: "SELECT SUM(i.charge) FROM invoiceline i", want: []string{"44"}},
		{q: "SELECT COUNT(*) FROM invoiceline i WHERE i.charge >= 7", want: []string{"3"}},
		{q: "SELECT MIN(i.charge), MAX(i.charge), AVG(i.charge) FROM invoiceline i WHERE i.custid = 1",
			want: []string{"5 10 7.5"}},
		{q: "SELECT c.office, SUM(i.charge) FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office",
			want: []string{"Corfu 22", "Myconos 22"}},
		{q: "SELECT c.office, COUNT(*) FROM customer c GROUP BY c.office HAVING COUNT(*) > 1",
			want: []string{"Corfu 2", "Myconos 2"}},
		{q: "SELECT i.custid, COUNT(DISTINCT i.invid) FROM invoiceline i GROUP BY i.custid HAVING COUNT(*) > 1",
			want: []string{"1 1"}},
		{q: "SELECT SUM(i.charge) FROM invoiceline i WHERE i.charge > 1000",
			want: []string{"∅"}},
		{q: "SELECT COUNT(*) FROM invoiceline i WHERE i.charge > 1000", want: []string{"0"}},
		// Expressions over aggregates.
		{q: "SELECT SUM(i.charge) / COUNT(*) FROM invoiceline i WHERE i.custid = 1",
			want: []string{"7.5"}},
		// DISTINCT, ORDER BY, LIMIT.
		{q: "SELECT DISTINCT c.office FROM customer c",
			want: []string{"Corfu", "Myconos"}},
		{q: "SELECT c.custname FROM customer c ORDER BY c.custid DESC LIMIT 2",
			want: []string{"carol", "eve"}},
		{q: "SELECT c.custname FROM customer c ORDER BY c.custname LIMIT 1",
			want: []string{"alice"}},
		// Star expansion.
		{q: "SELECT * FROM customer c WHERE c.custid = 1", rows: 1},
		// Aliased outputs.
		{q: "SELECT c.custname AS who, i.charge AS amt FROM customer c, invoiceline i WHERE c.custid = i.custid AND c.custid = 2",
			want: []string{"bob 7"}},
		// Empty results.
		{q: "SELECT c.custname FROM customer c WHERE c.office = 'Paris'", want: []string{}},
		// Cross join row count: 4 customers x 5 lines.
		{q: "SELECT c.custid, i.invid FROM customer c, invoiceline i", rows: 20},
		// IS NULL semantics (no NULLs in data).
		{q: "SELECT COUNT(*) FROM customer c WHERE c.custname IS NULL", want: []string{"0"}},
		{q: "SELECT COUNT(*) FROM customer c WHERE c.custname IS NOT NULL", want: []string{"4"}},
		// String comparison ordering.
		{q: "SELECT c.custname FROM customer c WHERE c.custname < 'bz' AND c.custname > 'am'",
			want: []string{"bob"}},
	}
	for _, tc := range cases {
		resp, err := n.Execute(trading.ExecReq{SQL: tc.q})
		if err != nil {
			t.Errorf("%s\n  error: %v", tc.q, err)
			continue
		}
		if tc.want == nil {
			if len(resp.Rows) != tc.rows {
				t.Errorf("%s\n  rows = %d, want %d", tc.q, len(resp.Rows), tc.rows)
			}
			continue
		}
		got := render(resp)
		want := append([]string{}, tc.want...)
		sort.Strings(want)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s\n  got  %v\n  want %v", tc.q, got, want)
		}
	}
}

// TestConstantConjunctIsApplied: a conjunct that names no relation belongs to
// no access path and to no join, so it must reach the plan's top filter — a
// constant-false WHERE returns nothing (one zero row for a global aggregate)
// and a constant-true one changes nothing.
func TestConstantConjunctIsApplied(t *testing.T) {
	n := fullNode(t)
	cases := []struct {
		q    string
		want []string
	}{
		{"SELECT c.custname FROM customer c WHERE 1 = 0", []string{}},
		{"SELECT c.custname FROM customer c WHERE c.custid < 3 AND 1 = 0", []string{}},
		{"SELECT c.custname FROM customer c WHERE 2 < 1 AND c.custid < 3", []string{}},
		{"SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND 1 = 0", []string{}},
		{"SELECT COUNT(*) FROM customer c WHERE 1 = 0", []string{"0"}},
		{"SELECT c.custname FROM customer c WHERE c.custid < 3 AND 1 = 1", []string{"alice", "bob"}},
		{"SELECT COUNT(*) FROM customer c, invoiceline i WHERE c.custid = i.custid AND 1 = 1", []string{"5"}},
	}
	for _, tc := range cases {
		resp, err := n.Execute(trading.ExecReq{SQL: tc.q})
		if err != nil {
			t.Errorf("%s\n  error: %v", tc.q, err)
			continue
		}
		if got := render(resp); strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("%s\n  got  %v\n  want %v", tc.q, got, tc.want)
		}
	}
}
