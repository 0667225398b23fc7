// Package experiments regenerates every table and figure of the paper's
// evaluation (reconstructed — see DESIGN.md "Source-text note"): plan
// quality against full-knowledge baselines, scalability in nodes, message
// counts, convergence, and the partitioning / plan-generator / strategy /
// view / protocol / replication sweeps. Each driver returns a Table whose
// rows are what cmd/qtbench prints and what EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"qtrade/internal/baseline"
	"qtrade/internal/catalog"
	"qtrade/internal/core"
	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/ledger"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// Table is one regenerated experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }

// chainFed builds a chain federation for optimization-only experiments.
func chainFed(opts workload.ChainOptions) (*workload.Federation, workload.ChainOptions) {
	if opts.RowsPerRel == 0 {
		opts.RowsPerRel = 240
	}
	if opts.Parts == 0 {
		opts.Parts = 2
	}
	if opts.Replicas == 0 {
		opts.Replicas = 2
	}
	opts.SkipOracleData = true
	return workload.NewChain(opts), opts
}

// obsTracer/obsMetrics, when set via SetObs, are injected into every
// optimization the drivers run — buyer config and seller nodes alike — so
// cmd/qtbench can export a trace or metrics snapshot of an experiment run.
var (
	obsTracer  *obs.Tracer
	obsMetrics *obs.Metrics
)

// SetObs registers a tracer and metrics registry for all subsequent
// experiment optimizations; nil, nil detaches.
func SetObs(tr *obs.Tracer, m *obs.Metrics) { obsTracer, obsMetrics = tr, m }

// expLedger, when set via SetLedger, audits every experiment negotiation so
// cmd/qtbench -ledger can print a calibration report after a run.
var expLedger *ledger.Ledger

// SetLedger registers a trading ledger for all subsequent experiment
// optimizations; nil detaches.
func SetLedger(l *ledger.Ledger) { expLedger = l }

// instrument injects the registered observability into one optimization.
func instrument(f *workload.Federation, cfg *core.Config) {
	if expLedger != nil {
		cfg.Ledger = expLedger
		f.SetLedger(expLedger)
	}
	if obsTracer == nil && obsMetrics == nil {
		return
	}
	cfg.Tracer = obsTracer
	cfg.Metrics = obsMetrics
	f.SetObs(obsTracer, obsMetrics)
}

// optimizeQT runs one QT optimization and returns the result plus the
// network message/byte counters it consumed.
func optimizeQT(f *workload.Federation, cfg core.Config, q string) (*core.Result, int64, int64, error) {
	f.Net.Reset()
	instrument(f, &cfg)
	res, err := f.Optimize(cfg, q)
	if err != nil {
		return nil, 0, 0, err
	}
	msgs, bytes := f.Net.Stats()
	return res, msgs, bytes, nil
}

// T1PlanQuality compares QT plans against the full-knowledge centralized
// DP, IDP(2,5) and naive data shipping, as the query grows from 2 to
// maxJoins relations. Estimated response times come from each optimizer's
// own cost model (so their ratio includes estimator bias); the meas_ columns
// actually execute the QT and centralized plans over the simulated
// federation and report measured wall microseconds, the bias-free
// comparison.
func T1PlanQuality(maxJoins, nodes int, seed int64) *Table {
	t := &Table{
		ID:     "T1",
		Title:  "plan quality vs centralized DP (est = optimizer estimates, meas = executed)",
		Header: []string{"relations", "centralDP_ms", "QT_est", "IDP_est", "ship_est", "QT_meas_us", "central_meas_us"},
	}
	for k := 2; k <= maxJoins; k++ {
		f, opts := chainFed(workload.ChainOptions{Relations: k, Nodes: nodes, Seed: seed})
		q := workload.ChainQuery(opts, 0.5)
		gv := baseline.NewGlobalView(f.Schema, nil, f.Nodes)
		central, err := baseline.Centralized(gv, f.Buyer, q, 0)
		if err != nil {
			continue
		}
		idp, err := baseline.Centralized(gv, f.Buyer, q, 5)
		if err != nil {
			continue
		}
		ship, err := baseline.DataShipping(gv, f.Buyer, q)
		if err != nil {
			continue
		}
		res, _, _, err := optimizeQT(f, f.BuyerConfig(), q)
		if err != nil {
			continue
		}
		qtMeas, err1 := measureQT(f, res)
		cenMeas, err2 := measurePlan(f, central.Root)
		if err1 != nil || err2 != nil {
			continue
		}
		ref := central.ResponseTime
		t.Rows = append(t.Rows, []string{
			d(int64(k)), f2(ref),
			f2(res.Candidate.ResponseTime / ref),
			f2(idp.ResponseTime / ref),
			f2(ship.ResponseTime / ref),
			f1(qtMeas), f1(cenMeas),
		})
	}
	return t
}

// measureQT executes a QT result and returns wall microseconds.
func measureQT(f *workload.Federation, res *core.Result) (float64, error) {
	start := time.Now()
	if _, err := f.Execute(res); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / 1000, nil
}

// measurePlan executes a baseline plan over the federation and returns wall
// microseconds.
func measurePlan(f *workload.Federation, root plan.Node) (float64, error) {
	comm := f.Comm()
	ex := &exec.Executor{
		Store: f.Nodes[f.Buyer].Store(),
		FetchStream: func(nodeID, sql, offerID string) (exec.RowStream, error) {
			st := &trading.Fetch{}
			call := func(req trading.ExecReq) (trading.ExecResp, error) { return comm.Fetch(nodeID, req) }
			if err := st.Open(call, trading.ExecReq{SQL: sql, OfferID: offerID}, exec.DefaultBatchSize); err != nil {
				return nil, err
			}
			return st, nil
		},
	}
	start := time.Now()
	if _, err := ex.Run(root); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / 1000, nil
}

// T2StarPlanQuality is T1 on bushy (star) join spaces: a fact table joined
// with a growing number of dimension tables scattered across nodes.
func T2StarPlanQuality(maxDims, nodes int, seed int64) *Table {
	t := &Table{
		ID:     "T2",
		Title:  "star-schema plan quality vs centralized DP",
		Header: []string{"dims", "centralDP_ms", "QT_est", "ship_est", "QT_meas_us", "central_meas_us"},
	}
	for dims := 2; dims <= maxDims; dims++ {
		opts := workload.StarOptions{Dims: dims, FactRows: 300, DimRows: 30, FactParts: 2, Nodes: nodes, Seed: seed, SkipOracle: true}
		f := workload.NewStar(opts)
		q := workload.StarQuery(opts, 0.5)
		gv := baseline.NewGlobalView(f.Schema, nil, f.Nodes)
		central, err := baseline.Centralized(gv, f.Buyer, q, 0)
		if err != nil {
			continue
		}
		ship, err := baseline.DataShipping(gv, f.Buyer, q)
		if err != nil {
			continue
		}
		res, _, _, err := optimizeQT(f, f.BuyerConfig(), q)
		if err != nil {
			continue
		}
		qtMeas, err1 := measureQT(f, res)
		cenMeas, err2 := measurePlan(f, central.Root)
		if err1 != nil || err2 != nil {
			continue
		}
		ref := central.ResponseTime
		t.Rows = append(t.Rows, []string{
			d(int64(dims)), f2(ref),
			f2(res.Candidate.ResponseTime / ref),
			f2(ship.ResponseTime / ref),
			f1(qtMeas), f1(cenMeas),
		})
	}
	return t
}

// F1OptTimeVsNodes sweeps the federation size and reports optimization time
// (wall clock plus simulated network latency on the critical path) for QT
// and the centralized baseline, whose statistics collection and site-aware
// DP grow with the federation.
func F1OptTimeVsNodes(nodeCounts []int, joins int, seed int64) *Table {
	t := &Table{
		ID:     "F1",
		Title:  "optimization time vs federation size",
		Header: []string{"nodes", "QT_wall_ms", "QT_net_ms", "QT_total_ms", "central_wall_ms", "central_net_ms", "central_total_ms"},
	}
	for _, n := range nodeCounts {
		f, opts := chainFed(workload.ChainOptions{Relations: joins, Nodes: n, Seed: seed})
		q := workload.ChainQuery(opts, 0.5)
		lat := f.Net.LatencyMS

		res, _, _, err := optimizeQT(f, f.BuyerConfig(), q)
		if err != nil {
			continue
		}
		qtWall := float64(res.Stats.WallTime.Microseconds()) / 1000
		// Each protocol round is one parallel request/response exchange.
		qtNet := float64(res.Stats.ProtocolRounds) * 2 * lat

		gv := baseline.NewGlobalView(f.Schema, nil, f.Nodes)
		start := time.Now()
		_, err = baseline.Centralized(gv, f.Buyer, q, 0)
		if err != nil {
			continue
		}
		cenWall := float64(time.Since(start).Microseconds()) / 1000
		// Statistics collection: one parallel round trip to every node, but
		// the responses serialize at the coordinator's link.
		cenNet := 2*lat + float64(n)*0.2*lat

		t.Rows = append(t.Rows, []string{
			d(int64(n)), f2(qtWall), f2(qtNet), f2(qtWall + qtNet),
			f2(cenWall), f2(cenNet), f2(cenWall + cenNet),
		})
	}
	return t
}

// F2MessagesVsNodes reports negotiation messages exchanged per optimization
// as the federation grows.
func F2MessagesVsNodes(nodeCounts []int, joins int, seed int64) *Table {
	t := &Table{
		ID:     "F2",
		Title:  "messages per optimization vs federation size",
		Header: []string{"nodes", "QT_msgs", "QT_bytes", "central_stat_msgs"},
	}
	for _, n := range nodeCounts {
		f, opts := chainFed(workload.ChainOptions{Relations: joins, Nodes: n, Seed: seed})
		q := workload.ChainQuery(opts, 0.5)
		_, msgs, bytes, err := optimizeQT(f, f.BuyerConfig(), q)
		if err != nil {
			continue
		}
		gv := baseline.NewGlobalView(f.Schema, nil, f.Nodes)
		t.Rows = append(t.Rows, []string{d(int64(n)), d(msgs), d(bytes), d(gv.StatMessages())})
	}
	return t
}

// F3Convergence traces the best-plan value over QT iterations.
func F3Convergence(joins, nodes int, seed int64) *Table {
	t := &Table{
		ID:     "F3",
		Title:  "convergence: best plan value per trading iteration",
		Header: []string{"iteration", "best_value_ms", "offer_pool"},
	}
	f, opts := chainFed(workload.ChainOptions{Relations: joins, Nodes: nodes, Seed: seed, Replicas: 2})
	q := workload.ChainQuery(opts, 0.5)
	cfg := f.BuyerConfig()
	cfg.MaxIterations = 8
	cfg.OnIteration = func(iter int, best float64, pool int) {
		t.Rows = append(t.Rows, []string{d(int64(iter)), f2(best), d(int64(pool))})
	}
	instrument(f, &cfg)
	if _, err := f.Optimize(cfg, q); err != nil {
		t.Rows = append(t.Rows, []string{"error", err.Error(), ""})
	}
	return t
}

// F4Partitions sweeps partitions per relation.
func F4Partitions(partCounts []int, seed int64) *Table {
	t := &Table{
		ID:     "F4",
		Title:  "effect of horizontal partitioning (3-way join, 8 nodes)",
		Header: []string{"parts/rel", "QT_value_ms", "QT_wall_ms", "QT_msgs", "offers"},
	}
	for _, p := range partCounts {
		f, opts := chainFed(workload.ChainOptions{Relations: 3, Nodes: 8, Parts: p, Seed: seed, RowsPerRel: 240})
		q := workload.ChainQuery(opts, 0.5)
		res, msgs, _, err := optimizeQT(f, f.BuyerConfig(), q)
		if err != nil {
			t.Rows = append(t.Rows, []string{d(int64(p)), "n/a", "", "", ""})
			continue
		}
		t.Rows = append(t.Rows, []string{
			d(int64(p)),
			f2(res.Candidate.ResponseTime),
			f2(float64(res.Stats.WallTime.Microseconds()) / 1000),
			d(msgs),
			d(int64(res.Stats.OffersReceived)),
		})
	}
	return t
}

// F5PlanGen compares the buyer plan generator algorithms as queries grow.
func F5PlanGen(maxJoins, nodes int, seed int64) *Table {
	t := &Table{
		ID:     "F5",
		Title:  "buyer plan generator: DP vs IDP-M(2,5) vs greedy",
		Header: []string{"relations", "DP_value", "DP_wall_ms", "IDP_value", "IDP_wall_ms", "greedy_value", "greedy_wall_ms"},
	}
	for k := 2; k <= maxJoins; k++ {
		f, opts := chainFed(workload.ChainOptions{Relations: k, Nodes: nodes, Seed: seed})
		q := workload.ChainQuery(opts, 0.5)
		row := []string{d(int64(k))}
		for _, mode := range []core.PlanGenMode{core.GenDP, core.GenIDP, core.GenGreedy} {
			cfg := f.BuyerConfig()
			cfg.Mode = mode
			res, _, _, err := optimizeQT(f, cfg, q)
			if err != nil {
				row = append(row, "n/a", "n/a")
				continue
			}
			row = append(row, f2(res.Candidate.ResponseTime),
				f2(float64(res.Stats.WallTime.Microseconds())/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// F6Strategies runs repeated negotiations with competitive sellers and
// reports the buyer-paid value and margins adapting over rounds.
func F6Strategies(rounds int, seed int64) *Table {
	t := &Table{
		ID:     "F6",
		Title:  "competitive pricing over repeated trading rounds",
		Header: []string{"round", "paid_value", "truthful_value", "avg_margin"},
	}
	var strategies []*trading.Competitive
	f := workload.NewTelco(workload.TelcoOptions{
		Seed: seed, CustomersPerOffice: 20, LinesPerCustomer: 3,
		Strategy: func() trading.SellerStrategy {
			s := trading.NewCompetitive()
			strategies = append(strategies, s)
			return s
		},
	})
	q := workload.TotalsQuery("Corfu", "Myconos")
	step := rounds / 10
	if step < 1 {
		step = 1
	}
	for r := 1; r <= rounds; r++ {
		cfg := f.BuyerConfig()
		instrument(f, &cfg)
		res, err := f.Optimize(cfg, q)
		if err != nil {
			break
		}
		var paid, truth float64
		for _, o := range res.Candidate.Offers {
			paid += o.Price
			truth += o.Props.TotalTime
		}
		var m float64
		for _, s := range strategies {
			m += s.Margin()
		}
		m /= float64(len(strategies))
		if r == 1 || r%step == 0 {
			t.Rows = append(t.Rows, []string{d(int64(r)), f2(paid), f2(truth), f2(m)})
		}
	}
	return t
}

// F7Views measures the benefit of the seller predicates analyser: the same
// aggregation query with and without materialized-view offers.
func F7Views(seed int64) *Table {
	t := &Table{
		ID:     "F7",
		Title:  "materialized-view offers (seller predicates analyser)",
		Header: []string{"views", "plan_value_ms", "purchases", "view_offers", "priced_offers", "empty_replies"},
	}
	q := `SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
	      WHERE c.custid = i.custid GROUP BY c.office`
	for _, enabled := range []bool{false, true} {
		f := workload.NewTelco(workload.TelcoOptions{
			Seed: seed, CustomersPerOffice: 60, LinesPerCustomer: 4,
			Configure: func(c *node.Config) { c.DisableViews = !enabled },
		})
		if enabled {
			// Materialize the per-office-per-customer totals on corfu from
			// ground truth.
			viewSQL := `SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i
			            WHERE c.custid = i.custid GROUP BY c.office, c.custid`
			truth, err := f.GroundTruth(viewSQL)
			if err == nil {
				_ = addViewToNode(f, "corfu", "officecusttotals", viewSQL, truth)
			}
		}
		res, _, _, err := optimizeQT(f, f.BuyerConfig(), q)
		if err != nil {
			continue
		}
		label := "disabled"
		if enabled {
			label = "enabled"
		}
		t.Rows = append(t.Rows, []string{
			label, f2(res.Candidate.ResponseTime), d(int64(len(res.Candidate.Offers))),
			d(int64(res.Stats.ViewOffers)), d(int64(res.Stats.OffersPriced)),
			d(int64(res.Stats.EmptyBidResponses))})
	}
	return t
}

// F8Protocols compares negotiation protocols with competitive sellers.
func F8Protocols(seed int64) *Table {
	t := &Table{
		ID:     "F8",
		Title:  "negotiation protocol ablation (competitive sellers)",
		Header: []string{"protocol", "paid_value", "plan_value_ms", "msgs", "rounds"},
	}
	protos := []trading.Protocol{
		trading.SealedBid{},
		trading.IterativeBid{MaxRounds: 4},
		trading.Bargain{MaxRounds: 4},
	}
	for _, p := range protos {
		f := workload.NewTelco(workload.TelcoOptions{
			Seed: seed, CustomersPerOffice: 30, LinesPerCustomer: 3,
			Strategy: func() trading.SellerStrategy { return trading.NewCompetitive() },
		})
		q := workload.TotalsQuery("Corfu", "Myconos")
		cfg := f.BuyerConfig()
		cfg.Protocol = p
		res, msgs, _, err := optimizeQT(f, cfg, q)
		if err != nil {
			continue
		}
		var paid float64
		for _, o := range res.Candidate.Offers {
			paid += o.Price
		}
		t.Rows = append(t.Rows, []string{
			p.Name(), f2(paid), f2(res.Candidate.ResponseTime), d(msgs),
			d(int64(res.Stats.ProtocolRounds))})
	}
	return t
}

// F9Replication sweeps replicas per fragment.
func F9Replication(replicaCounts []int, seed int64) *Table {
	t := &Table{
		ID:     "F9",
		Title:  "effect of replication (3-way join, 8 nodes)",
		Header: []string{"replicas", "QT_value_ms", "QT_msgs", "offers"},
	}
	for _, r := range replicaCounts {
		f, opts := chainFed(workload.ChainOptions{Relations: 3, Nodes: 8, Replicas: r, Seed: seed})
		q := workload.ChainQuery(opts, 0.5)
		res, msgs, _, err := optimizeQT(f, f.BuyerConfig(), q)
		if err != nil {
			t.Rows = append(t.Rows, []string{d(int64(r)), "n/a", "", ""})
			continue
		}
		t.Rows = append(t.Rows, []string{
			d(int64(r)), f2(res.Candidate.ResponseTime), d(msgs),
			d(int64(res.Stats.OffersReceived))})
	}
	return t
}

// F10Subcontract demonstrates the §3.5 subcontracting extension under
// restricted visibility: the buyer knows only one seller, which holds one of
// two needed partitions. Without subcontracting the query is unanswerable;
// with it, the visible seller purchases the missing fragment from a peer
// the buyer cannot see.
func F10Subcontract(seed int64) *Table {
	t := &Table{
		ID:     "F10",
		Title:  "subcontracting under restricted visibility (extension)",
		Header: []string{"subcontracting", "outcome", "plan_value_ms", "purchases", "priced_offers", "empty_replies"},
	}
	q := "SELECT c.custname FROM customer c WHERE c.office IN ('Corfu', 'Myconos')"
	for _, enabled := range []bool{false, true} {
		f := workload.NewTelco(workload.TelcoOptions{
			Seed: seed, Offices: []string{"Corfu", "Myconos"},
			CustomersPerOffice: 25, InvoiceReplicas: 1,
		})
		if enabled {
			// Wire corfu to subcontract from myconos. Node configs are
			// fixed at construction, so rebuild corfu's peer hook through
			// the federation's network.
			net := f.Net
			f.Nodes["corfu"] = rebuildWithSubcontract(f, "corfu", net)
			net.Register("corfu", f.Nodes["corfu"])
		}
		// The buyer's world: only corfu.
		comm := &core.PeerComm{
			PeerMap: map[string]trading.Peer{"corfu": f.Net.Peer("hq", "corfu")},
			AwardFn: func(to string, aw trading.Award) error { return f.Net.Award("hq", to, aw) },
			FetchFn: func(to string, req trading.ExecReq) (trading.ExecResp, error) {
				return f.Net.Execute("hq", to, req)
			},
		}
		label := "disabled"
		if enabled {
			label = "enabled"
		}
		res, err := core.Optimize(core.Config{ID: "hq", Schema: f.Schema}, comm, q)
		if err != nil {
			t.Rows = append(t.Rows, []string{label, "unanswerable", "-", "-", "-", "-"})
			continue
		}
		t.Rows = append(t.Rows, []string{label, "answered",
			f2(res.Candidate.ResponseTime), d(int64(len(res.Candidate.Offers))),
			d(int64(res.Stats.OffersPriced)), d(int64(res.Stats.EmptyBidResponses))})
	}
	return t
}

// rebuildWithSubcontract reconstructs a telco node with subcontracting
// enabled, copying its fragments.
func rebuildWithSubcontract(f *workload.Federation, id string, net interface {
	Peer(from, to string) trading.Peer
}) *node.Node {
	src := f.Nodes[id]
	n := node.New(node.Config{
		ID: id, Schema: f.Schema,
		SubcontractPeers: func() map[string]trading.Peer {
			peers := map[string]trading.Peer{}
			for other := range f.Nodes {
				if other != id && other != "hq" {
					peers[other] = net.Peer(id, other)
				}
			}
			return peers
		},
	})
	for _, table := range src.Store().Tables() {
		def, _ := f.Schema.Table(table)
		for _, pid := range src.Store().PartIDs(table) {
			if _, err := n.Store().CreateFragment(def, pid); err != nil {
				continue
			}
			var rows []value.Row
			_ = src.Store().Scan(table, pid, nil, func(r value.Row) bool {
				rows = append(rows, r)
				return true
			})
			_ = n.Store().Insert(table, pid, rows...)
		}
	}
	return n
}

// F11AggPushdown measures aggregate pushdown (extension): partial
// per-fragment aggregates merged at the buyer vs. shipping raw rows, on a
// WAN-ish network where transfers dominate.
func F11AggPushdown(seed int64) *Table {
	t := &Table{
		ID:     "F11",
		Title:  "aggregate pushdown on a slow network (extension)",
		Header: []string{"pushdown", "plan_value_ms", "bytes_shipped", "purchases"},
	}
	q := `SELECT c.office, SUM(i.charge) AS total, COUNT(*) AS n
	      FROM customer c, invoiceline i WHERE c.custid = i.custid
	      GROUP BY c.office`
	for _, enabled := range []bool{false, true} {
		slow := cost.Default()
		slow.BytesPerMS = 200
		f := workload.NewTelco(workload.TelcoOptions{
			Seed: seed, CustomersPerOffice: 60, LinesPerCustomer: 5, Model: slow,
			Configure: func(c *node.Config) { c.DisableAggPush = !enabled },
		})
		cfg := f.BuyerConfig()
		cfg.Cost = slow
		res, _, _, err := optimizeQT(f, cfg, q)
		if err != nil {
			continue
		}
		f.Net.Reset()
		if _, err := f.Execute(res); err != nil {
			continue
		}
		_, bytes := f.Net.Stats()
		label := "disabled"
		if enabled {
			label = "enabled"
		}
		t.Rows = append(t.Rows, []string{label, f2(res.Candidate.ResponseTime), d(bytes),
			d(int64(len(res.Candidate.Offers)))})
	}
	return t
}

// addViewToNode materializes rows into a node's view store.
func addViewToNode(f *workload.Federation, nodeID, name, sql string, truth trading.ExecResp) error {
	cols := make([]catalog.ColumnDef, len(truth.Cols))
	for i, c := range truth.Cols {
		cols[i] = catalog.ColumnDef{Name: c.Name, Kind: c.Kind}
	}
	return f.Nodes[nodeID].Store().AddView(&storage.MaterializedView{
		Name: name, SQL: sql, Columns: cols, Rows: truth.Rows,
	})
}

// Quick returns every experiment at CI-friendly scale.
func Quick(seed int64) []*Table { return runSpecs(QuickSpecs(seed)) }

// Full returns every experiment at paper scale (minutes of runtime).
func Full(seed int64) []*Table { return runSpecs(FullSpecs(seed)) }

// Spec is one runnable experiment: its table id plus a thunk that builds the
// federation and produces the table. Drivers only run when Run is called, so
// callers can filter by ID without paying for (or tracing) the rest.
type Spec struct {
	ID  string
	Run func() *Table
}

// QuickSpecs returns every experiment at quick scale, lazily.
func QuickSpecs(seed int64) []Spec {
	return []Spec{
		{"T1", func() *Table { return T1PlanQuality(4, 6, seed) }},
		{"T2", func() *Table { return T2StarPlanQuality(3, 5, seed) }},
		{"F1", func() *Table { return F1OptTimeVsNodes([]int{4, 8, 16}, 3, seed) }},
		{"F2", func() *Table { return F2MessagesVsNodes([]int{4, 8, 16}, 3, seed) }},
		{"F3", func() *Table { return F3Convergence(4, 8, seed) }},
		{"F4", func() *Table { return F4Partitions([]int{1, 2, 4}, seed) }},
		{"F5", func() *Table { return F5PlanGen(4, 6, seed) }},
		{"F6", func() *Table { return F6Strategies(10, seed) }},
		{"F7", func() *Table { return F7Views(seed) }},
		{"F8", func() *Table { return F8Protocols(seed) }},
		{"F9", func() *Table { return F9Replication([]int{1, 2}, seed) }},
		{"F10", func() *Table { return F10Subcontract(seed) }},
		{"F11", func() *Table { return F11AggPushdown(seed) }},
		{"F12", func() *Table { return F12Chaos(4, seed) }},
		{"F13", func() *Table { return F13ParallelPricing([]int{2, 6}, []int{1, 2, 4, 8}, 2, seed) }},
		{"F14", func() *Table { return F14TraceOverhead([]int{3, 5}, 4, seed) }},
		{"F15", func() *Table { return F15Throughput([]int{4, 8}, f15Clients, 4, seed) }},
		{"F16", func() *Table { return F16Calibration(6, seed) }},
		{"F17", func() *Table { return F17Churn(4, 3, 6, seed) }},
		{"F18", func() *Table { return F18Streaming([]int{400, 3200}, seed) }},
		{"F19", func() *Table { return F19Flight(8, seed) }},
	}
}

// FullSpecs returns every experiment at paper scale, lazily.
func FullSpecs(seed int64) []Spec {
	return []Spec{
		{"T1", func() *Table { return T1PlanQuality(7, 12, seed) }},
		{"T2", func() *Table { return T2StarPlanQuality(5, 8, seed) }},
		{"F1", func() *Table { return F1OptTimeVsNodes([]int{10, 20, 40, 80, 160, 320, 640}, 4, seed) }},
		{"F2", func() *Table { return F2MessagesVsNodes([]int{10, 20, 40, 80, 160, 320, 640}, 4, seed) }},
		{"F3", func() *Table { return F3Convergence(6, 16, seed) }},
		{"F4", func() *Table { return F4Partitions([]int{1, 2, 4, 8, 16}, seed) }},
		{"F5", func() *Table { return F5PlanGen(8, 10, seed) }},
		{"F6", func() *Table { return F6Strategies(50, seed) }},
		{"F7", func() *Table { return F7Views(seed) }},
		{"F8", func() *Table { return F8Protocols(seed) }},
		{"F9", func() *Table { return F9Replication([]int{1, 2, 3, 4}, seed) }},
		{"F10", func() *Table { return F10Subcontract(seed) }},
		{"F11", func() *Table { return F11AggPushdown(seed) }},
		{"F12", func() *Table { return F12Chaos(20, seed) }},
		{"F13", func() *Table { return F13ParallelPricing([]int{2, 6, 12}, []int{1, 2, 4, 8}, 5, seed) }},
		{"F14", func() *Table { return F14TraceOverhead([]int{3, 5, 7}, 40, seed) }},
		{"F15", func() *Table { return F15Throughput([]int{8, 16}, f15Clients, 12, seed) }},
		{"F16", func() *Table { return F16Calibration(20, seed) }},
		{"F17", func() *Table { return F17Churn(8, 4, 12, seed) }},
		{"F18", func() *Table { return F18Streaming([]int{400, 1600, 6400, 25600}, seed) }},
		{"F19", func() *Table { return F19Flight(24, seed) }},
	}
}

func runSpecs(specs []Spec) []*Table {
	out := make([]*Table, len(specs))
	for i, s := range specs {
		out[i] = s.Run()
	}
	return out
}
