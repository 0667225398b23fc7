package node

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/localopt"
	"qtrade/internal/obs"
	"qtrade/internal/rewrite"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// subcontract records how a composite offer is assembled at execution time:
// the node's own restricted subquery plus purchased fragments from third
// nodes.
type subcontract struct {
	localSQL string
	width    int
	remotes  []subRemote
}

type subRemote struct {
	peerID string
	sql    string
}

// subcontractOffers implements the §3.5 subcontracting procedure: for every
// query relation the node covers only partially, it asks its own peers for
// the missing partitions (a nested, depth-limited negotiation) and — when
// the gap can be covered — offers the *complete* relation extent, priced as
// its own cost plus the purchased offers.
//
// Each relation's probe is an independent nested negotiation, so they join
// the node's pricing pool: a probe runs on a spare worker slot when one is
// free and inline on the caller's slot otherwise. Offer ids are minted
// up front in relation order and results are collected positionally, so the
// output is byte-identical no matter how the probes were scheduled.
//
// sp is the parent span for the nested negotiation (nil when tracing is off).
func (n *Node) subcontractOffers(rfb trading.RFB, qr trading.QueryRequest, sel *sqlparse.Select, rw *rewrite.Rewritten, partials []*localopt.Partial, sp *obs.Span, ids *offerIDGen) []trading.Offer {
	peers := n.cfg.SubcontractPeers()
	if len(peers) == 0 {
		return nil
	}
	if n.cfg.Faults != nil {
		// Guard the negotiation only; execution-time fetches go through the
		// raw peers (executeSubcontract needs their Execute method).
		guarded := make(map[string]trading.Peer, len(peers))
		for id, p := range peers {
			guarded[id] = n.cfg.Faults.Wrap(id, p)
		}
		peers = guarded
	}
	type probe struct {
		tr                      sqlparse.TableRef
		own                     *localopt.Partial
		held, missing, relevant []string
		offerID                 string
	}
	var probes []probe
	for _, tr := range sel.From {
		b := strings.ToLower(tr.Binding())
		held, isKept := rw.Parts[b]
		if !isKept {
			continue // fully foreign relations are the buyer's problem
		}
		bindingPred := expr.SingleBindingPred(sel.Where, tr.Binding())
		relevant := rewrite.RelevantPartitions(n.cfg.Schema, tr.Name, bindingPred)
		missing := subtract(relevant, held)
		if len(missing) == 0 {
			continue
		}
		// The node's own 1-way partial for this binding.
		var own *localopt.Partial
		for _, p := range partials {
			if len(p.Bindings) == 1 && strings.EqualFold(p.Bindings[0], tr.Binding()) {
				own = p
			}
		}
		if own == nil {
			continue
		}
		probes = append(probes, probe{tr: tr, own: own, held: held,
			missing: missing, relevant: relevant, offerID: ids.next("s")})
	}
	results := make([]*trading.Offer, len(probes))
	var wg sync.WaitGroup
	for i, pr := range probes {
		run := func(i int, pr probe) {
			if offer, ok := n.buildComposite(rfb, qr, sel, pr.tr, pr.own,
				pr.held, pr.missing, pr.relevant, peers, sp, pr.offerID); ok {
				results[i] = &offer
			}
		}
		if len(probes) > 1 && n.tryAcquire() {
			wg.Add(1)
			go func(i int, pr probe) {
				defer wg.Done()
				defer n.release()
				run(i, pr)
			}(i, pr)
		} else {
			run(i, pr)
		}
	}
	wg.Wait()
	var out []trading.Offer
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// buildComposite negotiates the missing partitions and assembles the
// composite offer.
func (n *Node) buildComposite(rfb trading.RFB, qr trading.QueryRequest, sel *sqlparse.Select,
	tr sqlparse.TableRef, own *localopt.Partial, held, missing, relevant []string,
	peers map[string]trading.Peer, sp *obs.Span, offerID string) (trading.Offer, bool) {

	base := localopt.SubqueryFor(sel, []string{tr.Binding()})
	// The nested negotiation inherits the buyer's trace context, so a sampled
	// Depth-1 subcontract ships its own sellers' subtrees back up the chain:
	// they graft under this node's subcontract span, which in turn rides home
	// inside the node's RequestBids payload.
	subRFB := trading.RFB{
		RFBID:   rfb.RFBID + "/sub/" + n.cfg.ID,
		BuyerID: n.cfg.ID,
		Depth:   rfb.Depth + 1,
		Trace:   rfb.Trace,
	}
	for i, pid := range missing {
		p, ok := n.cfg.Schema.Partition(tr.Name, pid)
		if !ok || p.Predicate == nil {
			return trading.Offer{}, false // whole-table gaps cannot be delegated piecewise
		}
		q := base.Clone()
		restriction := expr.Qualify(p.Predicate, tr.Binding())
		q.Where = expr.SimplifyPredicate(expr.And([]expr.Expr{q.Where, restriction}))
		subRFB.Queries = append(subRFB.Queries, trading.QueryRequest{
			QID: fmt.Sprintf("sub%d", i),
			SQL: q.SQL(),
		})
	}
	offers, _, err := trading.SealedBid{Policy: n.cfg.Faults}.Collect(subRFB, peers, sp)
	if err != nil {
		return trading.Offer{}, false
	}
	ownCols, err := OutputSpecs(own.SQL, n.cfg.Schema, n.store)
	if err != nil {
		return trading.Offer{}, false
	}
	// Greedy cover of the missing partitions by cheapest compatible offers.
	need := map[string]bool{}
	for _, pid := range missing {
		need[pid] = true
	}
	sort.SliceStable(offers, func(i, j int) bool { return offers[i].Price < offers[j].Price })
	var chosen []trading.Offer
	for _, o := range offers {
		parts := o.Parts[strings.ToLower(tr.Binding())]
		if len(parts) == 0 || !colsMatch(ownCols, o.Cols) {
			continue
		}
		adds := false
		inMissing := true
		for _, pid := range parts {
			if need[pid] {
				adds = true
			}
			if !contains(missing, pid) {
				inMissing = false
			}
		}
		if !adds || !inMissing {
			continue
		}
		// Disjointness with already chosen coverage.
		overlap := false
		for _, pid := range parts {
			if !need[pid] {
				overlap = true
			}
		}
		if overlap {
			continue
		}
		chosen = append(chosen, o)
		for _, pid := range parts {
			delete(need, pid)
		}
		if len(need) == 0 {
			break
		}
	}
	if len(need) > 0 {
		return trading.Offer{}, false
	}

	// Assemble the composite offer. Its buyer-facing SQL describes the full
	// covered extent (the union the node will deliver), projected onto the
	// same columns as the local partial so the shipped schema matches.
	covered := append(append([]string{}, held...), missing...)
	sort.Strings(covered)
	compositeSQL := base.Clone()
	compositeSQL.Items = nil
	for _, c := range ownCols {
		compositeSQL.Items = append(compositeSQL.Items, sqlparse.SelectItem{Expr: expr.NewColumn(c.Table, c.Name)})
	}
	restriction := rewrite.PartitionRestriction(n.cfg.Schema, tr.Name, tr.Binding(), covered)
	if restriction != nil && !expr.Implies(compositeSQL.Where, restriction) {
		compositeSQL.Where = expr.SimplifyPredicate(expr.And([]expr.Expr{compositeSQL.Where, restriction}))
	}
	props := cost.Valuation{Freshness: 1, Completeness: 1}
	props.TotalTime = own.Cost + n.cfg.Cost.Transfer(own.Bytes)
	props.Rows = own.Rows
	props.Bytes = own.Bytes
	remoteMax := 0.0
	sc := &subcontract{localSQL: own.SQL.SQL(), width: len(ownCols)}
	totalPurchased := 0.0
	for _, o := range chosen {
		remoteMax = math.Max(remoteMax, o.Props.TotalTime)
		props.Rows += o.Props.Rows
		props.Bytes += o.Props.Bytes
		totalPurchased += o.Price
		sc.remotes = append(sc.remotes, subRemote{peerID: o.SellerID, sql: o.SQL})
	}
	props.TotalTime += remoteMax
	props.FirstRow = n.cfg.Cost.StartupCost + 2*n.cfg.Cost.NetLatency
	if props.TotalTime > 0 {
		props.RowsPerSec = float64(props.Rows) / (props.TotalTime / 1000)
	}
	truth := trading.TruthScore(n.cfg.Weights, props) + totalPurchased

	n.mu.Lock()
	n.subcontracts[offerID] = sc
	n.mu.Unlock()

	return trading.Offer{
		OfferID:  offerID,
		RFBID:    rfb.RFBID,
		QID:      qr.QID,
		SellerID: n.cfg.ID,
		SQL:      compositeSQL.SQL(),
		Bindings: []string{tr.Binding()},
		Parts:    map[string][]string{strings.ToLower(tr.Binding()): covered},
		Complete: len(subtract(relevant, covered)) == 0,
		Stripped: sel.HasAggregates() || len(sel.GroupBy) > 0,
		Cols:     ownCols,
		Props:    props,
		Price:    n.cfg.Strategy.Price(qr.QID, truth),
	}, true
}

// executeSubcontract assembles a composite offer's answer: local partial
// rows plus the purchased fragments fetched from the subcontractors. sp is
// the node's execute span; a sampled ctx is propagated on the fetches so the
// subcontractors' execution subtrees graft under the per-peer fetch spans.
func (n *Node) executeSubcontract(sc *subcontract, sp *obs.Span, ctx obs.TraceContext) (trading.ExecResp, error) {
	sel, err := sqlparse.ParseSelect(sc.localSQL)
	if err != nil {
		return trading.ExecResp{}, err
	}
	res, err := localopt.Optimize(sel, n.cfg.Schema, n.store, n.cfg.Cost)
	if err != nil {
		return trading.ExecResp{}, err
	}
	ex := &exec.Executor{Store: n.store}
	local, err := ex.Run(res.Best.Plan)
	if err != nil {
		return trading.ExecResp{}, err
	}
	specs, err := OutputSpecs(sel, n.cfg.Schema, n.store)
	if err != nil {
		return trading.ExecResp{}, err
	}
	rows := append([]value.Row{}, local.Rows...)
	peers := n.cfg.SubcontractPeers()
	for _, r := range sc.remotes {
		peer, ok := peers[r.peerID].(interface {
			Execute(trading.ExecReq) (trading.ExecResp, error)
		})
		var resp trading.ExecResp
		var err error
		fs := sp.Child("fetch " + r.peerID)
		req := trading.ExecReq{BuyerID: n.cfg.ID, SQL: r.sql}
		if ctx.Sampled {
			req.Trace = ctx
			req.Trace.Parent = fs.ID()
		}
		sentAt := time.Now()
		switch {
		case ok:
			// Guarded so a subcontractor that died after winning cannot hang
			// the composite delivery (nil policy = direct call).
			resp, err = trading.GuardCall(n.cfg.Faults, r.peerID, func() (trading.ExecResp, error) {
				return peer.Execute(req)
			})
		case n.cfg.SubcontractFetch != nil:
			resp, err = n.cfg.SubcontractFetch(r.peerID, req)
		default:
			err = fmt.Errorf("no execution channel")
		}
		if err != nil {
			fs.Set("error", err)
			fs.End()
			return trading.ExecResp{}, fmt.Errorf("node %s: subcontractor %s: %w", n.cfg.ID, r.peerID, err)
		}
		fs.Graft(resp.Trace, sentAt, time.Now())
		fs.End()
		for _, row := range resp.Rows {
			if len(row) != sc.width {
				return trading.ExecResp{}, fmt.Errorf("node %s: subcontracted width %d != %d", n.cfg.ID, len(row), sc.width)
			}
			rows = append(rows, row)
		}
	}
	return trading.ExecResp{Cols: specs, Rows: rows}, nil
}

func colsMatch(a []trading.ColSpec, b []trading.ColSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i].Name, b[i].Name) {
			return false
		}
	}
	return true
}

func subtract(all, remove []string) []string {
	rm := map[string]bool{}
	for _, r := range remove {
		rm[r] = true
	}
	var out []string
	for _, a := range all {
		if !rm[a] {
			out = append(out, a)
		}
	}
	return out
}

func contains(list []string, x string) bool {
	for _, l := range list {
		if l == x {
			return true
		}
	}
	return false
}
