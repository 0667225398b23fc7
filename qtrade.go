// Package qtrade is a query-trading federation of autonomous databases: an
// implementation of "Distributed Query Optimization by Query Trading"
// (Pentaris & Ioannidis, EDBT 2004).
//
// A federation is a set of autonomous nodes, each running its own storage
// engine, statistics and cost-based optimizer. Queries and query answers are
// traded as commodities: a node that needs an answer (the buyer) requests
// bids for (parts of) the query, seller nodes offer priced partial answers
// computed purely from optimizer estimates, and an iterative negotiation
// assembles the cheapest distributed execution plan before any data moves.
//
// Quickstart:
//
//	sch := qtrade.NewSchema()
//	sch.MustTable("customer",
//		qtrade.Col("custid", qtrade.Int),
//		qtrade.Col("office", qtrade.Str))
//	sch.MustPartition("customer",
//		qtrade.Part("corfu", "office = 'Corfu'"),
//		qtrade.Part("myconos", "office = 'Myconos'"))
//
//	fed := qtrade.NewFederation(sch)
//	corfu := fed.MustAddNode("corfu")
//	corfu.MustCreateFragment("customer", "corfu")
//	corfu.MustInsert("customer", "corfu", qtrade.Row(1, "Corfu"))
//	hq := fed.MustAddNode("hq")
//	_ = hq
//
//	res, err := fed.Query("hq", "SELECT c.custid FROM customer c WHERE c.office = 'Corfu'")
//
// See the examples directory for complete programs.
package qtrade

import (
	"fmt"
	"sync"
	"time"

	"qtrade/internal/catalog"
	"qtrade/internal/core"
	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// Kind identifies a column type.
type Kind = value.Kind

// The supported column kinds.
const (
	Int   = value.Int
	Float = value.Float
	Str   = value.Str
	Bool  = value.Bool
)

// Column describes one table column.
type Column struct {
	Name string
	Kind Kind
}

// Col is shorthand for a Column.
func Col(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// Partition declares one horizontal partition by its defining predicate
// (SQL boolean expression over the table's columns); an empty predicate
// declares a whole-table partition.
type Partition struct {
	ID        string
	Predicate string
}

// Part is shorthand for a Partition.
func Part(id, predicate string) Partition { return Partition{ID: id, Predicate: predicate} }

// Schema is the federation's public logical schema.
type Schema struct {
	sch *catalog.Schema
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return &Schema{sch: catalog.NewSchema()} }

// Table registers a table.
func (s *Schema) Table(name string, cols ...Column) error {
	defs := make([]catalog.ColumnDef, len(cols))
	for i, c := range cols {
		defs[i] = catalog.ColumnDef{Name: c.Name, Kind: c.Kind}
	}
	return s.sch.AddTable(&catalog.TableDef{Name: name, Columns: defs})
}

// MustTable registers a table or panics.
func (s *Schema) MustTable(name string, cols ...Column) {
	if err := s.Table(name, cols...); err != nil {
		panic(err)
	}
}

// Partition declares the horizontal partitioning of a table.
func (s *Schema) Partition(table string, parts ...Partition) error {
	out := make([]*catalog.Partition, len(parts))
	for i, p := range parts {
		cp := &catalog.Partition{Table: table, ID: p.ID}
		if p.Predicate != "" {
			pred, err := sqlparse.ParseExpr(p.Predicate)
			if err != nil {
				return fmt.Errorf("qtrade: partition %q: %w", p.ID, err)
			}
			cp.Predicate = pred
		}
		out[i] = cp
	}
	return s.sch.SetPartitions(table, out)
}

// MustPartition declares partitioning or panics.
func (s *Schema) MustPartition(table string, parts ...Partition) {
	if err := s.Partition(table, parts...); err != nil {
		panic(err)
	}
}

// Strategy selects a node's pricing behaviour.
type Strategy int

// The built-in pricing strategies.
const (
	// Cooperative nodes price truthfully (a single organization's
	// federation jointly minimizing cost).
	Cooperative Strategy = iota
	// Competitive nodes add an adaptive profit margin and undercut rivals.
	Competitive
)

// NodeOption configures a node at creation.
type NodeOption func(*node.Config)

// WithStrategy selects the node's pricing strategy.
func WithStrategy(s Strategy) NodeOption {
	return func(c *node.Config) {
		switch s {
		case Competitive:
			c.Strategy = trading.NewCompetitive()
		default:
			c.Strategy = trading.Cooperative{}
		}
	}
}

// WithoutViewOffers disables the seller predicates analyser (no
// materialized-view offers).
func WithoutViewOffers() NodeOption {
	return func(c *node.Config) { c.DisableViews = true }
}

// WithLoadAwarePricing folds the node's live load — executions in flight
// plus admitted and queued RFBs, normalized by its pricing pool — into
// every asked price, plus a large surcharge while draining. Overloaded or
// departing sellers price themselves out of new work, so load balances
// through the market itself instead of an external scheduler.
func WithLoadAwarePricing() NodeOption {
	return func(c *node.Config) { c.LoadAwarePricing = true }
}

// Federation is a simulated federation of autonomous nodes connected by an
// in-process network with full message accounting. A federation is safe for
// concurrent use: any number of goroutines may run Optimize/Query/
// QueryWithRecovery (even from the same buyer node) while others add nodes.
type Federation struct {
	mu      sync.RWMutex // guards nodes and faults
	schema  *Schema
	net     *netsim.Network
	nodes   map[string]*Node
	metrics *obs.Metrics
	faults  *trading.FaultPolicy
	ledger  *ledger.Ledger     // nil unless WithLedger; immutable after creation
	dir     *trading.Directory // health-gated peer view; immutable after creation

	flight   *flight.Recorder // nil unless WithFlightRecorder; immutable after creation
	watchdog *flight.Watchdog // nil unless WithMetricsHistory; owns the history; immutable after creation

	// What the observability options asked for, built by finishObsSetup.
	wantFlight    bool // WithFlightRecorder or WithSlowQuerySLO
	worstK        int
	slo           time.Duration
	wantHistory   bool
	historyWindow time.Duration
}

// NewFederation creates an empty federation over the schema.
func NewFederation(s *Schema, opts ...FederationOption) *Federation {
	f := &Federation{
		schema:  s,
		net:     netsim.New(),
		nodes:   map[string]*Node{},
		metrics: obs.NewMetrics(),
		dir:     trading.NewDirectory(),
	}
	for _, o := range opts {
		o(f)
	}
	f.finishObsSetup()
	return f
}

// Node is one autonomous federation member.
type Node struct {
	inner *node.Node
	fed   *Federation
}

// AddNode creates and registers a node. It is safe at runtime: a node added
// while queries are in flight joins the current fault policy, appears in the
// peer directory as Active, and is negotiable from the next optimization
// that resolves its peer view.
func (f *Federation) AddNode(id string, opts ...NodeOption) (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.nodes[id]; dup {
		return nil, fmt.Errorf("qtrade: duplicate node %q", id)
	}
	cfg := node.Config{ID: id, Schema: f.schema.sch, Metrics: f.metrics, Faults: f.faults}
	for _, o := range opts {
		o(&cfg)
	}
	n := &Node{inner: node.New(cfg), fed: f}
	n.inner.SetLedger(f.ledger)
	f.nodes[id] = n
	f.net.Register(id, n.inner)
	f.dir.MarkState(id, trading.StateActive)
	f.ledger.Lifecycle(ledger.KindJoin, id, "")
	return n, nil
}

// MustAddNode creates a node or panics.
func (f *Federation) MustAddNode(id string, opts ...NodeOption) *Node {
	n, err := f.AddNode(id, opts...)
	if err != nil {
		panic(err)
	}
	return n
}

// Node returns a registered node, or nil.
func (f *Federation) Node(id string) *Node {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nodes[id]
}

// buyerNode finds the node a query is optimized or executed at; a plan may
// outlive its buyer's registration.
func (f *Federation) buyerNode(id string) (*Node, error) {
	if n := f.Node(id); n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("qtrade: unknown buyer node %q", id)
}

// Row builds a row from Go values (int/int64, float64, string, bool, nil).
func Row(vals ...any) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		switch t := v.(type) {
		case nil:
			out[i] = value.NewNull()
		case int:
			out[i] = value.NewInt(int64(t))
		case int64:
			out[i] = value.NewInt(t)
		case float64:
			out[i] = value.NewFloat(t)
		case string:
			out[i] = value.NewStr(t)
		case bool:
			out[i] = value.NewBool(t)
		case value.Value:
			out[i] = t
		default:
			panic(fmt.Sprintf("qtrade: unsupported value %T", v))
		}
	}
	return out
}

// CreateFragment declares that this node stores the given partition.
func (n *Node) CreateFragment(table, partID string) error {
	def, ok := n.fed.schema.sch.Table(table)
	if !ok {
		return fmt.Errorf("qtrade: unknown table %q", table)
	}
	_, err := n.inner.Store().CreateFragment(def, partID)
	return err
}

// MustCreateFragment declares a fragment or panics.
func (n *Node) MustCreateFragment(table, partID string) {
	if err := n.CreateFragment(table, partID); err != nil {
		panic(err)
	}
}

// Insert appends rows (built with Row) to a local fragment.
func (n *Node) Insert(table, partID string, rows ...[]value.Value) error {
	conv := make([]value.Row, len(rows))
	for i, r := range rows {
		conv[i] = value.Row(r)
	}
	return n.inner.Store().Insert(table, partID, conv...)
}

// MustInsert inserts or panics.
func (n *Node) MustInsert(table, partID string, rows ...[]value.Value) {
	if err := n.Insert(table, partID, rows...); err != nil {
		panic(err)
	}
}

// AddView stores a materialized view the node may offer during trading. The
// definition must be a SELECT over base tables; cols and rows give the
// stored result.
func (n *Node) AddView(name, definition string, cols []Column, rows ...[]value.Value) error {
	defs := make([]catalog.ColumnDef, len(cols))
	for i, c := range cols {
		defs[i] = catalog.ColumnDef{Name: c.Name, Kind: c.Kind}
	}
	conv := make([]value.Row, len(rows))
	for i, r := range rows {
		conv[i] = value.Row(r)
	}
	return n.inner.Store().AddView(&storage.MaterializedView{
		Name: name, SQL: definition, Columns: defs, Rows: conv,
	})
}

// ID returns the node id.
func (n *Node) ID() string { return n.inner.ID() }

// OptimizeOption tweaks one optimization run.
type OptimizeOption func(*core.Config)

// WithPlanGenerator selects the buyer plan generator: "dp" (default), "idp"
// (IDP-M(2,5)) or "greedy".
func WithPlanGenerator(mode string) OptimizeOption {
	return func(c *core.Config) { c.Mode = core.PlanGenMode(mode) }
}

// WithProtocol selects the negotiation protocol: "sealed" (default),
// "iterative" or "bargain".
func WithProtocol(name string) OptimizeOption {
	return func(c *core.Config) {
		switch name {
		case "iterative":
			c.Protocol = trading.IterativeBid{MaxRounds: 3}
		case "bargain":
			c.Protocol = trading.Bargain{MaxRounds: 3}
		default:
			c.Protocol = trading.SealedBid{}
		}
	}
}

// WithMaxIterations bounds the trading loop.
func WithMaxIterations(n int) OptimizeOption {
	return func(c *core.Config) { c.MaxIterations = n }
}

// Plan is an optimized distributed execution plan.
type Plan struct {
	res    *core.Result
	buyer  string
	fed    *Federation
	tracer *obs.Tracer
}

// buyerConfig assembles the buyer-side configuration of one optimization
// from the named node: the federation's sinks and policies, then opts.
func (f *Federation) buyerConfig(buyer string, opts []OptimizeOption) (core.Config, *Node, error) {
	bn, err := f.buyerNode(buyer)
	if err != nil {
		return core.Config{}, nil, err
	}
	f.mu.RLock()
	faults := f.faults
	f.mu.RUnlock()
	cfg := core.Config{ID: buyer, Schema: f.schema.sch, Self: bn.inner, Metrics: f.metrics,
		Faults: faults, Ledger: f.ledger, Directory: f.dir, Flight: f.flight}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg, bn, nil
}

// Optimize runs query-trading optimization from the named buyer node
// without executing anything.
func (f *Federation) Optimize(buyer, sql string, opts ...OptimizeOption) (*Plan, error) {
	cfg, _, err := f.buyerConfig(buyer, opts)
	if err != nil {
		return nil, err
	}
	res, err := core.Optimize(cfg, &core.NetComm{Net: f.net, SelfID: buyer}, sql)
	if err != nil {
		return nil, err
	}
	return &Plan{res: res, buyer: buyer, fed: f, tracer: cfg.Tracer}, nil
}

// Explain renders the plan tree with the purchased offers.
func (p *Plan) Explain() string { return core.ExplainResult(p.res) }

// EstimatedResponseTime returns the plan's estimated response time in the
// federation's cost units (milliseconds by default).
func (p *Plan) EstimatedResponseTime() float64 { return p.res.Candidate.ResponseTime }

// Purchases returns (seller, SQL, price) for each purchased answer.
func (p *Plan) Purchases() []Purchase {
	out := make([]Purchase, len(p.res.Candidate.Offers))
	for i, o := range p.res.Candidate.Offers {
		out[i] = Purchase{Seller: o.SellerID, SQL: o.SQL, Price: o.Price}
	}
	return out
}

// Purchase describes one bought query-answer.
type Purchase struct {
	Seller string
	SQL    string
	Price  float64
}

// Iterations reports how many trading iterations the optimization ran.
func (p *Plan) Iterations() int { return p.res.Stats.Iterations }

// Result is a materialized query answer.
type Result struct {
	Columns []string
	Rows    [][]any
}

// Run executes the plan: purchased answers are fetched from their sellers,
// local operators run at the buyer.
func (p *Plan) Run() (*Result, error) {
	res, err := p.execute(nil)
	if err != nil {
		return nil, err
	}
	return newResult(res), nil
}

// execute runs the plan at its buyer, profiling operators into st when it is
// set. The buyer may have been removed since the plan was optimized.
func (p *Plan) execute(st *exec.RunStats) (*exec.Result, error) {
	bn, err := p.fed.buyerNode(p.buyer)
	if err != nil {
		return nil, err
	}
	ex := &exec.Executor{Store: bn.inner.Store(), Stats: st}
	return core.ExecuteResultTraced(&core.NetComm{Net: p.fed.net, SelfID: p.buyer}, ex, p.res, p.execTracer())
}

// newResult converts an executor answer into the public shape: qualified
// column names, rows of plain Go values.
func newResult(res *exec.Result) *Result {
	out := &Result{}
	for _, c := range res.Cols {
		name := c.Name
		if c.Table != "" {
			name = c.Table + "." + c.Name
		}
		out.Columns = append(out.Columns, name)
	}
	for _, r := range res.Rows {
		row := make([]any, len(r))
		for i, v := range r {
			row[i] = toAny(v)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func toAny(v value.Value) any {
	switch v.K {
	case value.Int:
		return v.I
	case value.Float:
		return v.F
	case value.Str:
		return v.S
	case value.Bool:
		return v.B
	}
	return nil
}

// Query optimizes and executes in one step.
func (f *Federation) Query(buyer, sql string, opts ...OptimizeOption) (*Result, error) {
	p, err := f.Optimize(buyer, sql, opts...)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// QueryWithRecovery is Query with execution-time fault tolerance: when a
// purchased seller fails between negotiation and delivery, the buyer
// re-optimizes around it and retries, up to maxRetries times.
func (f *Federation) QueryWithRecovery(buyer, sql string, maxRetries int, opts ...OptimizeOption) (*Result, error) {
	cfg, bn, err := f.buyerConfig(buyer, opts)
	if err != nil {
		return nil, err
	}
	comm := &core.NetComm{Net: f.net, SelfID: buyer}
	out, _, _, err := core.OptimizeAndExecute(cfg, comm, &exec.Executor{Store: bn.inner.Store()}, sql, maxRetries)
	if err != nil {
		return nil, err
	}
	return newResult(out), nil
}

// DrainNode begins a graceful departure: the node refuses new buyer-originated
// RFBs with a typed rejection that buyers skip without retries, finishes its
// in-flight negotiations, awards and executions, keeps honoring its standing
// offers, and stops competing in improvement rounds. The peer directory marks
// it draining so subsequent optimizations skip it before spending a
// round-trip. Reversible with UndrainNode; finalized by RemoveNode.
func (f *Federation) DrainNode(id string) error {
	f.mu.RLock()
	n, ok := f.nodes[id]
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("qtrade: unknown node %q", id)
	}
	n.inner.Drain("operator")
	f.dir.MarkState(id, trading.StateDraining)
	return nil
}

// UndrainNode cancels a drain, returning the node to Active in both its own
// state machine and the peer directory.
func (f *Federation) UndrainNode(id string) error {
	f.mu.RLock()
	n, ok := f.nodes[id]
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("qtrade: unknown node %q", id)
	}
	if !n.inner.Undrain() {
		return fmt.Errorf("qtrade: node %q is not draining (state %s)", id, n.inner.State())
	}
	f.dir.MarkState(id, trading.StateActive)
	return nil
}

// RemoveNode takes a node out of the federation for good: its lifecycle
// moves to Left (revoking every standing offer), it is unregistered from the
// network, and it disappears from peer views and the directory. For a
// graceful exit call DrainNode first and give in-flight work time to finish
// (Federation.QuiesceNode); RemoveNode itself does not wait. Rejoining under
// the same id is a fresh AddNode.
func (f *Federation) RemoveNode(id string) error {
	f.mu.Lock()
	n, ok := f.nodes[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("qtrade: unknown node %q", id)
	}
	delete(f.nodes, id)
	f.mu.Unlock()
	n.inner.Leave("removed")
	f.net.Unregister(id)
	f.dir.Forget(id)
	return nil
}

// QuiesceNode waits — up to timeout — for a node's in-flight work (admitted
// RFBs and running executions) to finish, reporting whether it fully
// quiesced. Most useful between DrainNode and RemoveNode.
func (f *Federation) QuiesceNode(id string, timeout time.Duration) bool {
	f.mu.RLock()
	n, ok := f.nodes[id]
	f.mu.RUnlock()
	if !ok {
		return true
	}
	return n.inner.Quiesce(timeout)
}

// NodeStates reports every member's lifecycle state ("active", "draining").
func (f *Federation) NodeStates() map[string]string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]string, len(f.nodes))
	for id, n := range f.nodes {
		out[id] = n.inner.State().String()
	}
	return out
}

// NodeHealth returns one node's live health snapshot: lifecycle state,
// admission queue depth, executions in flight, and the per-peer breaker
// summary of its fault policy.
func (f *Federation) NodeHealth(id string) (node.Health, error) {
	f.mu.RLock()
	n, ok := f.nodes[id]
	f.mu.RUnlock()
	if !ok {
		return node.Health{}, fmt.Errorf("qtrade: unknown node %q", id)
	}
	return n.inner.Health(), nil
}

// PeerDirectory returns the buyers' shared health-gated peer view: every
// tracked peer's lifecycle state, breaker position and last successful
// contact.
func (f *Federation) PeerDirectory() []trading.PeerHealth { return f.dir.Snapshot() }

// CrashNode kills a node abruptly mid-whatever-it-was-doing: every call to
// it fails with a transient crashed error until RestartNode. Unlike
// SetNodeDown the failure is typed (recovery ledger events classify it
// "crash") and tallied in ChaosStats — the churn primitive behind F17.
func (f *Federation) CrashNode(id string) { f.net.CrashNode(id) }

// RestartNode revives a crashed node; peers can reach it again immediately.
func (f *Federation) RestartNode(id string) { f.net.RestartNode(id) }

// NetworkStats reports total messages and bytes exchanged since the last
// ResetNetworkStats.
func (f *Federation) NetworkStats() (messages, bytes int64) { return f.net.Stats() }

// ResetNetworkStats zeroes the counters.
func (f *Federation) ResetNetworkStats() { f.net.Reset() }

// SetNodeDown simulates a node failure (it stops answering peers).
func (f *Federation) SetNodeDown(id string, down bool) { f.net.SetDown(id, down) }

// CostModel exposes the default cost constants for advanced tuning.
func CostModel() *cost.Model { return cost.Default() }
