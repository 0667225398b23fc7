// Package workload builds the synthetic federations and query workloads the
// experiments run on: the paper's telco customer-care scenario (§1) and
// parameterized chain-join federations for the scalability, partitioning and
// replication sweeps.
//
// All generators are hermetic: each owns an explicitly seeded *rand.Rand
// (never the shared global math/rand source), so identical options produce
// identical federations regardless of what other code — including the
// parallel pricing benchmarks — draws from the global source concurrently.
// TestGeneratorsHermetic pins this.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/core"
	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// Federation is a ready-to-run simulated federation.
type Federation struct {
	Schema *catalog.Schema
	Net    *netsim.Network
	Nodes  map[string]*node.Node
	// Buyer is the node id optimizations are issued from.
	Buyer string
	// oracle holds every fragment, for ground-truth answers.
	oracle *node.Node
}

// Comm returns the buyer's communication surface.
func (f *Federation) Comm() *core.NetComm {
	return &core.NetComm{Net: f.Net, SelfID: f.Buyer}
}

// BuyerConfig returns a core.Config wired to this federation's buyer.
func (f *Federation) BuyerConfig() core.Config {
	return core.Config{ID: f.Buyer, Schema: f.Schema, Self: f.Nodes[f.Buyer]}
}

// Oracle returns the omniscient single node holding all data.
func (f *Federation) Oracle() *node.Node { return f.oracle }

// SetObs attaches tracing and metrics to every node's seller path (nil
// arguments detach). Pair it with a core.Config carrying the same Tracer
// and Metrics to capture the full buyer+sellers picture.
func (f *Federation) SetObs(tr *obs.Tracer, m *obs.Metrics) {
	for _, n := range f.Nodes {
		n.SetObs(tr, m)
	}
}

// SetLedger attaches a trading ledger to every node's seller path (nil
// detaches). Pair it with a core.Config carrying the same Ledger so buyer
// and seller events land in the same negotiation records.
func (f *Federation) SetLedger(l *ledger.Ledger) {
	for _, n := range f.Nodes {
		n.SetLedger(l)
	}
}

// GroundTruth evaluates sql on the oracle node.
func (f *Federation) GroundTruth(sql string) (trading.ExecResp, error) {
	return f.oracle.Execute(trading.ExecReq{SQL: sql})
}

// Optimize runs the QT optimizer from the buyer with the given overrides.
func (f *Federation) Optimize(cfg core.Config, sql string) (*core.Result, error) {
	return core.Optimize(cfg, f.Comm(), sql)
}

// Execute runs an optimized plan, fetching purchased answers over the
// simulated network.
func (f *Federation) Execute(res *core.Result) (*exec.Result, error) {
	ex := &exec.Executor{Store: f.Nodes[f.Buyer].Store()}
	return core.ExecuteResult(f.Comm(), ex, res)
}

// TelcoOptions parameterizes the paper's motivating scenario.
type TelcoOptions struct {
	Offices            []string // office names; one node each, plus a buyer "hq"
	CustomersPerOffice int
	LinesPerCustomer   int
	// InvoiceReplicas is how many office nodes hold the (single-fragment)
	// invoiceline table; 0 means every office node.
	InvoiceReplicas int
	Seed            int64
	// Strategy builds each node's pricing strategy; nil = cooperative.
	Strategy func() trading.SellerStrategy
	// Model overrides the cost model; nil = cost.Default().
	Model *cost.Model
	// Configure, when set, adjusts each node's configuration before
	// construction (ablations: disable view offers, cap offers, ...).
	Configure func(*node.Config)
}

// TelcoSchema returns the customer-care schema with customer horizontally
// partitioned by office.
func TelcoSchema(offices []string) *catalog.Schema {
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
		{Name: "custid", Kind: value.Int},
		{Name: "custname", Kind: value.Str},
		{Name: "office", Kind: value.Str},
	}})
	sch.MustAddTable(&catalog.TableDef{Name: "invoiceline", Columns: []catalog.ColumnDef{
		{Name: "invid", Kind: value.Int},
		{Name: "linenum", Kind: value.Int},
		{Name: "custid", Kind: value.Int},
		{Name: "charge", Kind: value.Float},
	}})
	parts := make([]*catalog.Partition, len(offices))
	for i, off := range offices {
		parts[i] = &catalog.Partition{
			Table:     "customer",
			ID:        strings.ToLower(off),
			Predicate: sqlparse.MustParseExpr(fmt.Sprintf("office = '%s'", off)),
		}
	}
	if err := sch.SetPartitions("customer", parts); err != nil {
		panic(err)
	}
	return sch
}

// NewTelco builds the telco federation: one node per office holding its
// customer partition (and possibly an invoiceline replica), plus a data-less
// "hq" buyer node.
func NewTelco(opts TelcoOptions) *Federation {
	if len(opts.Offices) == 0 {
		opts.Offices = []string{"Corfu", "Myconos", "Athens"}
	}
	if opts.CustomersPerOffice <= 0 {
		opts.CustomersPerOffice = 20
	}
	if opts.LinesPerCustomer <= 0 {
		opts.LinesPerCustomer = 3
	}
	if opts.InvoiceReplicas <= 0 || opts.InvoiceReplicas > len(opts.Offices) {
		opts.InvoiceReplicas = len(opts.Offices)
	}
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	sch := TelcoSchema(opts.Offices)
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")

	custRows := map[string][]value.Row{}
	var invRows []value.Row
	id := int64(0)
	invid := int64(1000)
	for _, off := range opts.Offices {
		key := strings.ToLower(off)
		for c := 0; c < opts.CustomersPerOffice; c++ {
			id++
			custRows[key] = append(custRows[key], value.Row{
				value.NewInt(id),
				value.NewStr(fmt.Sprintf("cust%d", id)),
				value.NewStr(off),
			})
			for l := 0; l < opts.LinesPerCustomer; l++ {
				invid++
				// Zipf-ish charges: many small, few large.
				charge := float64(1+rng.Intn(10)) * float64(1+rng.Intn(1+rng.Intn(20)))
				invRows = append(invRows, value.Row{
					value.NewInt(invid),
					value.NewInt(int64(l + 1)),
					value.NewInt(id),
					value.NewFloat(charge),
				})
			}
		}
	}

	f := &Federation{Schema: sch, Net: netsim.New(), Nodes: map[string]*node.Node{}, Buyer: "hq"}
	mkStrategy := func() trading.SellerStrategy {
		if opts.Strategy == nil {
			return nil
		}
		return opts.Strategy()
	}
	loadCust := func(n *node.Node, part string) {
		if _, err := n.Store().CreateFragment(cust, part); err != nil {
			panic(err)
		}
		if err := n.Store().Insert("customer", part, custRows[part]...); err != nil {
			panic(err)
		}
	}
	loadInv := func(n *node.Node) {
		if _, err := n.Store().CreateFragment(inv, "p0"); err != nil {
			panic(err)
		}
		if err := n.Store().Insert("invoiceline", "p0", invRows...); err != nil {
			panic(err)
		}
	}
	mkNode := func(id string) *node.Node {
		cfg := node.Config{ID: id, Schema: sch, Strategy: mkStrategy(), Cost: opts.Model}
		if opts.Configure != nil {
			opts.Configure(&cfg)
		}
		return node.New(cfg)
	}
	for i, off := range opts.Offices {
		id := strings.ToLower(off)
		n := mkNode(id)
		loadCust(n, id)
		if i < opts.InvoiceReplicas {
			loadInv(n)
		}
		f.Nodes[id] = n
		f.Net.Register(id, n)
	}
	hq := mkNode("hq")
	f.Nodes["hq"] = hq
	f.Net.Register("hq", hq)

	oracle := node.New(node.Config{ID: "oracle", Schema: sch})
	for _, off := range opts.Offices {
		loadCust(oracle, strings.ToLower(off))
	}
	loadInv(oracle)
	f.oracle = oracle
	return f
}

// TotalsQuery is the paper's motivating query over the given offices.
func TotalsQuery(offices ...string) string {
	quoted := make([]string, len(offices))
	for i, o := range offices {
		quoted[i] = "'" + o + "'"
	}
	return fmt.Sprintf(`SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i `+
		`WHERE c.custid = i.custid AND c.office IN (%s) GROUP BY c.office ORDER BY c.office`,
		strings.Join(quoted, ", "))
}

// ChainOptions parameterizes a chain-join federation: K relations r1..rK,
// each range-partitioned into Parts partitions on its primary key, placed
// round-robin over N nodes with Replicas copies each.
type ChainOptions struct {
	Relations      int // K >= 1
	RowsPerRel     int
	Parts          int // partitions per relation
	Nodes          int
	Replicas       int
	Seed           int64
	Strategy       func() trading.SellerStrategy
	Model          *cost.Model
	SkipOracleData bool // very large federations: skip ground-truth store
	// Configure adjusts each node's configuration before construction.
	Configure func(*node.Config)
}

// ChainSchema builds relations r1..rK with columns (pk, fk, v), each
// range-partitioned on pk.
func ChainSchema(opts ChainOptions) *catalog.Schema {
	sch := catalog.NewSchema()
	per := opts.RowsPerRel / opts.Parts
	for k := 1; k <= opts.Relations; k++ {
		name := fmt.Sprintf("r%d", k)
		sch.MustAddTable(&catalog.TableDef{Name: name, Columns: []catalog.ColumnDef{
			{Name: "pk", Kind: value.Int},
			{Name: "fk", Kind: value.Int},
			{Name: "v", Kind: value.Float},
		}})
		parts := make([]*catalog.Partition, opts.Parts)
		for p := 0; p < opts.Parts; p++ {
			lo, hi := p*per, (p+1)*per
			var pred string
			switch {
			case opts.Parts == 1:
				parts[p] = &catalog.Partition{Table: name, ID: "p0"}
				continue
			case p == opts.Parts-1:
				pred = fmt.Sprintf("pk >= %d", lo)
			default:
				pred = fmt.Sprintf("pk >= %d AND pk < %d", lo, hi)
			}
			parts[p] = &catalog.Partition{
				Table: name, ID: fmt.Sprintf("p%d", p),
				Predicate: sqlparse.MustParseExpr(pred),
			}
		}
		if err := sch.SetPartitions(name, parts); err != nil {
			panic(err)
		}
	}
	return sch
}

// NewChain builds the chain federation. Node ids are n0..n{N-1}; the buyer
// is n0.
func NewChain(opts ChainOptions) *Federation {
	if opts.Relations <= 0 {
		opts.Relations = 3
	}
	if opts.RowsPerRel <= 0 {
		opts.RowsPerRel = 400
	}
	if opts.Parts <= 0 {
		opts.Parts = 2
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if opts.Replicas > opts.Nodes {
		opts.Replicas = opts.Nodes
	}
	rng := rand.New(rand.NewSource(opts.Seed + 13))
	sch := ChainSchema(opts)

	f := &Federation{Schema: sch, Net: netsim.New(), Nodes: map[string]*node.Node{}, Buyer: "n0"}
	mkStrategy := func() trading.SellerStrategy {
		if opts.Strategy == nil {
			return nil
		}
		return opts.Strategy()
	}
	for i := 0; i < opts.Nodes; i++ {
		id := fmt.Sprintf("n%d", i)
		cfg := node.Config{ID: id, Schema: sch, Strategy: mkStrategy(), Cost: opts.Model}
		if opts.Configure != nil {
			opts.Configure(&cfg)
		}
		n := node.New(cfg)
		f.Nodes[id] = n
		f.Net.Register(id, n)
	}
	var oracle *node.Node
	if !opts.SkipOracleData {
		oracle = node.New(node.Config{ID: "oracle", Schema: sch})
	}
	f.oracle = oracle

	// Generate rows per relation and distribute fragments round-robin.
	per := opts.RowsPerRel / opts.Parts
	placeSeq := 0
	for k := 1; k <= opts.Relations; k++ {
		name := fmt.Sprintf("r%d", k)
		def, _ := sch.Table(name)
		rowsByPart := map[string][]value.Row{}
		for i := 0; i < opts.RowsPerRel; i++ {
			p := i / per
			if p >= opts.Parts {
				p = opts.Parts - 1
			}
			pid := fmt.Sprintf("p%d", p)
			if opts.Parts == 1 {
				pid = "p0"
			}
			rowsByPart[pid] = append(rowsByPart[pid], value.Row{
				value.NewInt(int64(i)),
				value.NewInt(int64(rng.Intn(opts.RowsPerRel))),
				value.NewFloat(float64(rng.Intn(1000)) / 10),
			})
		}
		for p := 0; p < opts.Parts; p++ {
			pid := fmt.Sprintf("p%d", p)
			for rep := 0; rep < opts.Replicas; rep++ {
				holder := f.Nodes[fmt.Sprintf("n%d", (placeSeq+rep)%opts.Nodes)]
				if _, err := holder.Store().CreateFragment(def, pid); err != nil {
					panic(err)
				}
				if err := holder.Store().Insert(name, pid, rowsByPart[pid]...); err != nil {
					panic(err)
				}
			}
			placeSeq++
			if oracle != nil {
				if _, err := oracle.Store().CreateFragment(def, pid); err != nil {
					panic(err)
				}
				if err := oracle.Store().Insert(name, pid, rowsByPart[pid]...); err != nil {
					panic(err)
				}
			}
		}
	}
	return f
}

// ChainQuery builds the K-way chain join with an optional range filter on
// r1 (selFrac in (0,1]; 1 or 0 means no filter).
func ChainQuery(opts ChainOptions, selFrac float64) string {
	var from, where []string
	for k := 1; k <= opts.Relations; k++ {
		from = append(from, fmt.Sprintf("r%d", k))
		if k < opts.Relations {
			where = append(where, fmt.Sprintf("r%d.fk = r%d.pk", k, k+1))
		}
	}
	if selFrac > 0 && selFrac < 1 {
		where = append(where, fmt.Sprintf("r1.pk < %d", int(float64(opts.RowsPerRel)*selFrac)))
	}
	q := fmt.Sprintf("SELECT r1.pk, r%d.v FROM %s", opts.Relations, strings.Join(from, ", "))
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q
}
