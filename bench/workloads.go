package main

import (
	"fmt"
	"math/rand"
	"net"
	"strings"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// query is one entry of a workload's query list. Its oracle answer is the
// subset of the workload's base answer (spec.baseSQL, run once on the
// single-node oracle) that keep accepts: every list varies one predicate
// over a fixed join, so one oracle run covers the list. expectations
// cross-checks the derivation against direct oracle runs.
type query struct {
	sql  string
	keep func(value.Row) bool
}

// spec describes one workload: how to build its federation and query list
// from the seed, and how its answers are verified.
type spec struct {
	name string
	// tcp serves the sellers over net/rpc on loopback in the deployed
	// configuration of cmd/qtnode and cmd/qtsql; otherwise the in-process
	// bus carries the traffic.
	tcp bool
	// churn inserts one invoiceline row into every replica before every 8th
	// query.
	churn bool
	// tracedQueries is the length of the traced pass.
	tracedQueries int
	build         func(seed int64) *workload.Federation
	queries       func(seed int64) []query
	baseSQL       string
	ordered       bool // the queries have ORDER BY: answers compare in order
}

const churnEvery = 8

var (
	telcoOffices = []string{"Corfu", "Myconos", "Athens", "Rhodes"}
	// telcoSubsets are the office subsets the telco workloads cycle: every
	// size from one office to all four, so the 4 sellers are relevant to
	// different numbers of queries.
	telcoSubsets = [][]string{
		{"Corfu", "Myconos", "Athens", "Rhodes"},
		{"Corfu", "Myconos"},
		{"Athens", "Rhodes"},
		{"Corfu"},
		{"Myconos", "Athens", "Rhodes"},
		{"Corfu", "Athens"},
		{"Rhodes"},
	}
	chainParts = workload.ChainOptions{Relations: 3, RowsPerRel: 1120, Parts: 14, Nodes: 8, Replicas: 1}
	chainScan  = workload.ChainOptions{Relations: 2, RowsPerRel: 20000, Parts: 2, Nodes: 3, Replicas: 1}
)

const (
	telcoCustomers = 200
	telcoLines     = 3
)

func buildTelco(seed int64) *workload.Federation {
	return workload.NewTelco(workload.TelcoOptions{Offices: telcoOffices,
		CustomersPerOffice: telcoCustomers, LinesPerCustomer: telcoLines, Seed: seed})
}

func telcoQueries(seed int64) []query {
	qs := make([]query, len(telcoSubsets))
	for i, subset := range telcoSubsets {
		in := map[string]bool{}
		for _, o := range subset {
			in[o] = true
		}
		qs[i] = query{sql: workload.TotalsQuery(subset...),
			keep: func(r value.Row) bool { return in[r[0].S] }}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func buildChain(opts workload.ChainOptions) func(int64) *workload.Federation {
	return func(seed int64) *workload.Federation {
		opts.Seed = seed
		return workload.NewChain(opts)
	}
}

// chainPartsQueries keeps r1.pk < X with X in (1080, 1120]: the last of the
// 14 partitions of r1 (pk >= 1040) stays relevant for every X, so the plan
// shape is constant while the SQL text changes.
func chainPartsQueries(seed int64) []query {
	base := workload.ChainQuery(chainParts, 1)
	qs := make([]query, 40)
	for i := range qs {
		x := int64(1081 + i)
		qs[i] = query{sql: fmt.Sprintf("%s AND r1.pk < %d", base, x),
			keep: func(r value.Row) bool { return r[0].I < x }}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// chainScanQueries keeps r1.pk >= K for 500 of the 1000 values of K below
// 1000: about 19.5k result rows each, and more distinct rewritten queries
// per seller than the 256-entry price cache holds.
func chainScanQueries(seed int64) []query {
	base := workload.ChainQuery(chainScan, 1)
	qs := make([]query, 500)
	for i, k := range rand.New(rand.NewSource(seed)).Perm(1000)[:len(qs)] {
		k := int64(k)
		qs[i] = query{sql: fmt.Sprintf("%s AND r1.pk >= %d", base, k),
			keep: func(r value.Row) bool { return r[0].I >= k }}
	}
	return qs
}

// specs are the workloads, in the order of BENCHMARK.json, which also says
// why each exists.
var specs = []*spec{
	// Every layer is crossed and none dominates; repeated queries keep the
	// price caches as hot as they get.
	{name: "telco_repeat", tracedQueries: 400, build: buildTelco, queries: telcoQueries,
		baseSQL: workload.TotalsQuery(telcoOffices...), ordered: true},
	// The same layers with writes beside reads: statistics rebuilds and
	// price-cache invalidation.
	{name: "telco_churn", churn: true, tracedQueries: 400, build: buildTelco, queries: telcoQueries,
		baseSQL: workload.TotalsQuery(telcoOffices...), ordered: true},
	// The same queries over real net/rpc with the always-on sinks of the
	// deployed binaries.
	{name: "telco_tcp", tcp: true, tracedQueries: 400, build: buildTelco, queries: telcoQueries,
		baseSQL: workload.TotalsQuery(telcoOffices...), ordered: true},
	// The buyer's plan generator is most of a query.
	{name: "chain_parts", tracedQueries: 40, build: buildChain(chainParts), queries: chainPartsQueries,
		baseSQL: workload.ChainQuery(chainParts, 1)},
	// Seller scan, streamed fetch and the buyer's hash join are most of a
	// query, and the price cache is too small for the query list.
	{name: "chain_scan", tracedQueries: 40, build: buildChain(chainScan), queries: chainScanQueries,
		baseSQL: workload.ChainQuery(chainScan, 1)},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// fed is one running federation with the buyer's view of it.
type fed struct {
	spec *spec
	f    *workload.Federation
	cfg  core.Config
	comm core.Comm
	exec *exec.Executor
	// sellers are the nodes that answer RFBs, by id.
	sellers map[string]*node.Node
	// registries hold the node.*.pricecache_* counters and the buyer's
	// plangen_ms histogram when metrics are attached: always on telco_tcp,
	// during the traced pass elsewhere.
	registries []*obs.Metrics
	stop       func()
}

// start builds the workload's federation. A non-nil tracer wraps the seller
// services, the buyer's Comm and its LocalSeller; the wrappers record only
// while the tracer is on.
func (s *spec) start(seed int64, tr *tracer) (*fed, error) {
	f := s.build(seed)
	fd := &fed{spec: s, f: f, sellers: map[string]*node.Node{}, stop: func() {}}
	if s.tcp {
		if err := fd.serveTCP(tr); err != nil {
			fd.stop()
			return nil, err
		}
	} else {
		fd.cfg = f.BuyerConfig()
		fd.comm = f.Comm()
		fd.exec = &exec.Executor{Store: f.Nodes[f.Buyer].Store()}
		for id, n := range f.Nodes {
			fd.sellers[id] = n
			if tr != nil {
				f.Net.Register(id, tracedService{Service: n, tr: tr, id: id})
			}
		}
	}
	if tr != nil {
		fd.comm = tracedComm{Comm: fd.comm, tr: tr, wrapPeers: !s.tcp}
		if fd.cfg.Self != nil {
			fd.cfg.Self = tracedSelf{LocalSeller: fd.cfg.Self, tr: tr}
		}
	}
	return fd, nil
}

// serveTCP serves every office node on 127.0.0.1 with the sinks cmd/qtnode
// attaches, dials them, and configures a pure buyer as cmd/qtsql -connect
// does.
func (fd *fed) serveTCP(tr *tracer) error {
	var listeners []net.Listener
	rpcPeers := map[string]*netsim.RPCPeer{}
	fd.stop = func() {
		for _, p := range rpcPeers {
			p.Close()
		}
		for _, ln := range listeners {
			ln.Close()
		}
	}
	peers := map[string]trading.Peer{}
	for _, office := range telcoOffices {
		id := strings.ToLower(office)
		n := fd.f.Nodes[id]
		m := obs.NewMetrics()
		n.SetObs(nil, m)
		n.SetTraceLog(obs.NewTraceLogN(0))
		n.SetLedger(ledger.New(0))
		fd.sellers[id] = n
		fd.registries = append(fd.registries, m)
		var svc netsim.Service = n
		if tr != nil {
			svc = tracedService{Service: n, tr: tr, id: id}
		}
		ln, err := netsim.ServeRPC("127.0.0.1:0", id, svc)
		if err != nil {
			return fmt.Errorf("serve %s: %w", id, err)
		}
		listeners = append(listeners, ln)
		p, err := netsim.DialPeer(ln.Addr().String(), id)
		if err != nil {
			return fmt.Errorf("dial %s: %w", id, err)
		}
		rpcPeers[id] = p
		peers[id] = p
		if tr != nil {
			peers[id] = tracedPeer{Peer: p, tr: tr, id: id}
		}
	}
	bm := obs.NewMetrics()
	fd.registries = append(fd.registries, bm)
	fd.cfg = core.Config{ID: "qtsql", Schema: fd.f.Schema, Metrics: bm,
		Ledger: ledger.New(0), Flight: flight.NewRecorder(0)}
	fd.comm = &core.PeerComm{
		PeerMap: peers,
		AwardFn: func(to string, aw trading.Award) error { return rpcPeers[to].Award(aw) },
		FetchFn: func(to string, req trading.ExecReq) (trading.ExecResp, error) {
			return rpcPeers[to].Execute(req)
		},
	}
	fd.exec = &exec.Executor{}
	return nil
}

// attachMetrics gives a bus federation the metric registry the traced pass
// reads the price-cache counters and the plangen_ms histogram from.
func (fd *fed) attachMetrics() {
	if fd.spec.tcp {
		return
	}
	m := obs.NewMetrics()
	fd.f.SetObs(nil, m)
	fd.cfg.Metrics = m
	fd.registries = []*obs.Metrics{m}
}

// sumMetric adds up, over the federation's registries, every counter value
// or histogram sum whose name ends in suffix.
func (fd *fed) sumMetric(suffix string) float64 {
	total := 0.0
	for _, m := range fd.registries {
		m.Each(func(name string, inst any) {
			if !strings.HasSuffix(name, suffix) {
				return
			}
			switch v := inst.(type) {
			case *obs.Counter:
				total += float64(v.Value())
			case *obs.Histogram:
				total += v.Sum()
			}
		})
	}
	return total
}

// churnInsert appends one invoice line of a random customer to every replica
// of invoiceline and to the oracle, and returns the customer's office and
// the charge. Charges are whole numbers so that sums are exact in any order.
func (fd *fed) churnInsert(rng *rand.Rand, seq int64) (office string, charge float64, err error) {
	cust := 1 + rng.Intn(telcoCustomers*len(telcoOffices))
	charge = float64(1 + rng.Intn(50))
	row := value.Row{value.NewInt(1_000_000 + seq), value.NewInt(1),
		value.NewInt(int64(cust)), value.NewFloat(charge)}
	stores := []*node.Node{fd.f.Oracle()}
	for _, o := range telcoOffices {
		stores = append(stores, fd.f.Nodes[strings.ToLower(o)])
	}
	for _, n := range stores {
		if err := n.Store().Insert("invoiceline", "p0", row); err != nil {
			return "", 0, err
		}
	}
	return telcoOffices[(cust-1)/telcoCustomers], charge, nil
}
