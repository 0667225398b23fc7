package baseline

import (
	"sort"
	"strings"
	"testing"

	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

func rowsKey(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		idx := make([]int, len(r))
		for j := range idx {
			idx[j] = j
		}
		out[i] = value.Key(r, idx)
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

// runPlan executes a baseline plan over the federation.
func runPlan(t *testing.T, f *workload.Federation, p *Plan) []value.Row {
	t.Helper()
	comm := f.Comm()
	ex := &exec.Executor{
		Store: f.Nodes[f.Buyer].Store(),
		FetchStream: func(nodeID, sql, offerID string) (exec.RowStream, error) {
			resp, err := comm.Fetch(nodeID, trading.ExecReq{SQL: sql})
			if err != nil {
				return nil, err
			}
			cols := make([]expr.ColumnID, len(resp.Cols))
			for i, c := range resp.Cols {
				cols[i] = expr.ColumnID{Table: c.Table, Name: c.Name}
			}
			return exec.NewRows(cols, resp.Rows, 0), nil
		},
	}
	res, err := ex.Run(p.Root)
	if err != nil {
		t.Fatalf("execute baseline plan: %v\n%s", err, plan.Explain(p.Root))
	}
	return res.Rows
}

func view(f *workload.Federation) *GlobalView {
	return NewGlobalView(f.Schema, nil, f.Nodes)
}

func TestCentralizedTelcoCorrect(t *testing.T) {
	f := workload.NewTelco(workload.TelcoOptions{Seed: 1, CustomersPerOffice: 8, LinesPerCustomer: 2})
	q := workload.TotalsQuery("Corfu", "Myconos")
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Centralized(view(f), f.Buyer, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, f, p)
	if rowsKey(got) != rowsKey(truth.Rows) {
		t.Fatalf("centralized != truth:\ngot  %v\nwant %v\n%s", got, truth.Rows, plan.Explain(p.Root))
	}
	if p.ResponseTime <= 0 || p.StatMessages != 2*int64(len(f.Nodes)) {
		t.Fatalf("plan stats: %+v", p)
	}
}

func TestCentralizedChainCorrect(t *testing.T) {
	opts := workload.ChainOptions{Relations: 3, RowsPerRel: 60, Parts: 2, Nodes: 4, Replicas: 1, Seed: 4}
	f := workload.NewChain(opts)
	q := workload.ChainQuery(opts, 0.5)
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Centralized(view(f), f.Buyer, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, f, p)
	if rowsKey(got) != rowsKey(truth.Rows) {
		t.Fatalf("centralized chain != truth: %d vs %d rows\n%s",
			len(got), len(truth.Rows), plan.Explain(p.Root))
	}
}

func TestIDPVariantCorrectAndCheaperToOptimize(t *testing.T) {
	opts := workload.ChainOptions{Relations: 5, RowsPerRel: 50, Parts: 2, Nodes: 5, Replicas: 1, Seed: 6}
	f := workload.NewChain(opts)
	q := workload.ChainQuery(opts, 1)
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Centralized(view(f), f.Buyer, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	idp, err := Centralized(view(f), f.Buyer, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(runPlan(t, f, idp)) != rowsKey(truth.Rows) {
		t.Fatalf("IDP answer wrong\n%s", plan.Explain(idp.Root))
	}
	// IDP may be worse but never better than exhaustive DP.
	if idp.ResponseTime < full.ResponseTime*0.999 {
		t.Fatalf("IDP beat DP: %.2f vs %.2f", idp.ResponseTime, full.ResponseTime)
	}
}

func TestDataShippingCorrectButCostlier(t *testing.T) {
	f := workload.NewTelco(workload.TelcoOptions{Seed: 2, CustomersPerOffice: 10, LinesPerCustomer: 2})
	q := workload.TotalsQuery("Corfu", "Myconos")
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	ship, err := DataShipping(view(f), f.Buyer, q)
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, f, ship)
	if rowsKey(got) != rowsKey(truth.Rows) {
		t.Fatalf("shipping != truth:\ngot  %v\nwant %v", got, truth.Rows)
	}
	central, err := Centralized(view(f), f.Buyer, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if central.ResponseTime > ship.ResponseTime*1.2 {
		t.Fatalf("centralized should beat naive shipping: %.2f vs %.2f",
			central.ResponseTime, ship.ResponseTime)
	}
}

func TestCentralizedPushesJoinToCoLocatedSite(t *testing.T) {
	// One office node holds its customer partition AND the invoiceline
	// replica. With a slow network and a very selective join, shipping the
	// two inputs loses to evaluating the join at the co-located site and
	// shipping the (tiny) result.
	slow := cost.Default()
	slow.BytesPerMS = 20 // ~20 KB/s: transfers dominate
	f := workload.NewTelco(workload.TelcoOptions{
		Seed: 3, Offices: []string{"Corfu"}, CustomersPerOffice: 50,
		LinesPerCustomer: 5, InvoiceReplicas: 1, Model: slow})
	q := `SELECT c.custname, i.charge FROM customer c, invoiceline i
	      WHERE c.custid = i.custid AND c.custid = 5`
	gv := NewGlobalView(f.Schema, slow, f.Nodes)
	p, err := Centralized(gv, f.Buyer, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	remotes := plan.Remotes(p.Root)
	if len(remotes) != 1 {
		t.Fatalf("expected a single ship-nothing fetch:\n%s", plan.Explain(p.Root))
	}
	if !strings.Contains(remotes[0].SQL, "customer") || !strings.Contains(remotes[0].SQL, "invoiceline") {
		t.Fatalf("join must be pushed to corfu: %s", remotes[0].SQL)
	}
	truth, _ := f.GroundTruth(q)
	if rowsKey(runPlan(t, f, p)) != rowsKey(truth.Rows) {
		t.Fatal("pushed join answer wrong")
	}
}

func TestBuyerLocalDataAvoidsTransfers(t *testing.T) {
	opts := workload.ChainOptions{Relations: 2, RowsPerRel: 40, Parts: 1, Nodes: 1, Replicas: 1, Seed: 8}
	f := workload.NewChain(opts) // single node n0 = buyer holds everything
	q := workload.ChainQuery(opts, 1)
	p, err := Centralized(view(f), f.Buyer, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Remotes(p.Root)) != 0 {
		t.Fatalf("all-local query must not fetch:\n%s", plan.Explain(p.Root))
	}
	truth, _ := f.GroundTruth(q)
	if rowsKey(runPlan(t, f, p)) != rowsKey(truth.Rows) {
		t.Fatal("local plan wrong")
	}
}

func TestErrors(t *testing.T) {
	f := workload.NewTelco(workload.TelcoOptions{Seed: 1})
	gv := view(f)
	if _, err := Centralized(gv, f.Buyer, "not sql", 0); err == nil {
		t.Fatal("bad SQL must error")
	}
	if _, err := Centralized(gv, f.Buyer, "SELECT g.x FROM ghost g", 0); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := DataShipping(gv, f.Buyer, "not sql"); err == nil {
		t.Fatal("bad SQL must error")
	}
}

func TestGlobalViewHolders(t *testing.T) {
	f := workload.NewTelco(workload.TelcoOptions{Seed: 1})
	gv := view(f)
	h := gv.Holders("customer", "corfu")
	if len(h) != 1 || h[0] != "corfu" {
		t.Fatalf("holders: %v", h)
	}
	if len(gv.Holders("customer", "nope")) != 0 {
		t.Fatal("unknown fragment must have no holders")
	}
}
