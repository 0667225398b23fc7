// Telco: the paper's full motivating scenario at a larger scale — a
// telecommunications company with regional offices, horizontally partitioned
// and replicated customer-care data, and managers issuing analytical queries
// from any office. Demonstrates partition pruning, fragment reassembly
// across sellers, protocol choice, and robustness to a node failure.
// Run with: go run ./examples/telco
package main

import (
	"fmt"
	"log"
	"strings"

	"qtrade"
)

var offices = []string{"Corfu", "Myconos", "Athens", "Rhodes", "Chania"}

func main() {
	sch := qtrade.NewSchema()
	sch.MustTable("customer",
		qtrade.Col("custid", qtrade.Int),
		qtrade.Col("custname", qtrade.Str),
		qtrade.Col("office", qtrade.Str))
	sch.MustTable("invoiceline",
		qtrade.Col("invid", qtrade.Int),
		qtrade.Col("linenum", qtrade.Int),
		qtrade.Col("custid", qtrade.Int),
		qtrade.Col("charge", qtrade.Float))
	parts := make([]qtrade.Partition, len(offices))
	for i, off := range offices {
		parts[i] = qtrade.Part(strings.ToLower(off), fmt.Sprintf("office = '%s'", off))
	}
	sch.MustPartition("customer", parts...)

	fed := qtrade.NewFederation(sch)
	id := 0
	invid := 10000
	for oi, off := range offices {
		n := fed.MustAddNode(strings.ToLower(off))
		part := strings.ToLower(off)
		n.MustCreateFragment("customer", part)
		// Invoice replicas on island offices only (odd indexes skip them).
		withInvoices := oi%2 == 0
		if withInvoices {
			n.MustCreateFragment("invoiceline", "p0")
		}
		for c := 0; c < 200; c++ {
			id++
			n.MustInsert("customer", part, qtrade.Row(id, fmt.Sprintf("cust%d", id), off))
		}
	}
	// Load all invoice lines on every replica holder.
	for oi, off := range offices {
		if oi%2 != 0 {
			continue
		}
		n := fed.Node(strings.ToLower(off))
		for cust := 1; cust <= id; cust++ {
			for l := 0; l < 2; l++ {
				invid++
				n.MustInsert("invoiceline", "p0",
					qtrade.Row(invid, l+1, cust, float64((cust*7+l*3)%90)+1))
			}
		}
	}
	fed.MustAddNode("hq")

	query := `SELECT c.office, SUM(i.charge) AS total, COUNT(*) AS lines
		FROM customer c, invoiceline i
		WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
		GROUP BY c.office ORDER BY total DESC`

	fmt.Println("== the manager's query, optimized by query trading ==")
	plan, err := fed.Optimize("hq", query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Explain())
	fmt.Printf("(%d trading iterations)\n\n", plan.Iterations())

	res, err := plan.Run()
	if err != nil {
		log.Fatal(err)
	}
	printResult(res)

	fmt.Println("\n== same query via iterative bidding ==")
	res2, err := fed.Query("hq", query, qtrade.WithProtocol("iterative"))
	if err != nil {
		log.Fatal(err)
	}
	printResult(res2)

	fmt.Println("\n== corfu node fails; query restricted to Myconos still works ==")
	fed.CrashNode("corfu")
	res3, err := fed.Query("hq", `
		SELECT c.office, SUM(i.charge) AS total
		FROM customer c, invoiceline i
		WHERE c.custid = i.custid AND c.office = 'Myconos'
		GROUP BY c.office`)
	if err != nil {
		log.Fatal(err)
	}
	printResult(res3)
}

func printResult(res *qtrade.Result) {
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(cells, " | "))
	}
}
