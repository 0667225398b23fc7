package node

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/localopt"
	"qtrade/internal/plan"
	"qtrade/internal/pricecache"
	"qtrade/internal/qgraph"
	"qtrade/internal/rewrite"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// subcontract records how a composite offer is assembled at execution time:
// the node's own restricted subquery plus purchased fragments from third
// nodes. The own part runs on the book entry's plan; localSQL is its text, for
// the day that plan has gone stale.
type subcontract struct {
	localSQL string
	remotes  []subRemote
}

// assembly is the plan that delivers the composite: the node's own part
// followed by one Remote leaf per purchased fragment.
func (sc *subcontract) assembly(local plan.Node) plan.Node {
	inputs := make([]plan.Node, 1, 1+len(sc.remotes))
	inputs[0] = local
	cols := local.Schema()
	for _, r := range sc.remotes {
		inputs = append(inputs, &plan.Remote{NodeID: r.peerID, SQL: r.sql, OfferID: r.offerID, Cols: cols})
	}
	return &plan.Union{Inputs: inputs}
}

// subRemote is one purchased fragment, fetched by the id of the offer its
// subcontractor quoted so that the delivery is recorded against it.
type subRemote struct {
	peerID  string
	offerID string
	sql     string
}

// subcontractDrafts implements the §3.5 subcontracting procedure: for every
// query relation the node covers only partially, it asks its own peers for
// the missing partitions (a nested, depth-limited negotiation) and — when
// the gap can be covered — drafts an offer of the *complete* relation extent,
// costed as its own work plus the purchased offers.
//
// Each relation's probe is an independent nested negotiation, so they join
// the node's pricing pool: a probe runs on a spare worker slot when one is
// free and inline on the caller's slot otherwise. Offer ids are reserved
// up front in relation order and results are collected positionally, so the
// output is byte-identical no matter how the probes were scheduled.
//
// The nested negotiations run under ph, the subcontract step.
func (n *Node) subcontractDrafts(rfb trading.RFB, e pricecache.Entry, ph step, ids *minter) []compositeDraft {
	peers := n.cfg.SubcontractPeers()
	if len(peers) == 0 {
		return nil
	}
	type probe struct {
		gap     *pricecache.Gap
		own     *pricecache.Draft
		offerID string
	}
	var probes []probe
	for k := range e.Gaps {
		g := &e.Gaps[k]
		// The node's own 1-way partial for this binding.
		var own *pricecache.Draft
		for i := range e.Drafts {
			if d := &e.Drafts[i]; d.Kind == "o" && len(d.Bindings) == 1 && strings.EqualFold(d.Bindings[0], g.Binding) {
				own = d
			}
		}
		if own == nil {
			continue
		}
		probes = append(probes, probe{gap: g, own: own, offerID: ids.nextID("s")})
	}
	results := make([]*compositeDraft, len(probes))
	var wg sync.WaitGroup
	for i, pr := range probes {
		run := func(i int, pr probe) {
			if d, ok := n.buildComposite(rfb, ids.qid, pr.gap, pr.own, peers, ph, pr.offerID); ok {
				results[i] = &d
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
	var out []compositeDraft
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// gaps summarizes, for the price-cache entry of sel, every relation the node
// holds only part of: what subcontractDrafts reads on every later RFB for the
// text, so that no hit parses it again. Fully foreign relations are the
// buyer's problem, and a relation held whole has nothing to buy.
func (n *Node) gaps(sel *sqlparse.Select, rw *rewrite.Rewritten) []pricecache.Gap {
	var out []pricecache.Gap
	var subquery func(mask uint) *sqlparse.Select
	agg := sel.Aggregates()
	for i, tr := range sel.From {
		b := strings.ToLower(tr.Binding())
		held, isKept := rw.Parts[b]
		if !isKept {
			continue
		}
		relevant := rw.Relevant[b]
		missing := subtract(relevant, held)
		if len(missing) == 0 {
			continue
		}
		if subquery == nil {
			subquery = localopt.Subqueries(sel, qgraph.New(sel), n.cfg.Schema)
		}
		out = append(out, pricecache.Gap{Table: tr.Name, Binding: tr.Binding(), Agg: agg,
			Sub: subquery(1 << i), Held: held, Missing: missing, Relevant: relevant})
	}
	return out
}

// buildComposite negotiates the missing partitions and drafts the composite
// offer with the assembly that delivers it.
func (n *Node) buildComposite(rfb trading.RFB, qid string, g *pricecache.Gap, own *pricecache.Draft,
	peers map[string]trading.Peer, ph step, offerID string) (compositeDraft, bool) {

	// The nested negotiation inherits the buyer's trace context, so a sampled
	// Depth-1 subcontract ships its own sellers' subtrees back up the chain:
	// they graft under this node's subcontract span, which in turn rides home
	// inside the node's RequestBids payload. Each probe is a negotiation of
	// its own — its QIDs restart at sub0 — so its id names the parent query and
	// binding it probes for: two probes under one parent RFB must not make a
	// subcontractor mint the same offer id for different SQL.
	subRFB := trading.RFB{
		RFBID:   rfb.RFBID + "/sub/" + n.cfg.ID + "/" + qid + "/" + g.Binding,
		BuyerID: n.cfg.ID,
		Depth:   rfb.Depth + 1,
		Trace:   rfb.Trace,
	}
	// Every part of the composite ships the columns of the node's own part,
	// which may add the columns of its partition restriction to the
	// relation's subquery: each missing partition is asked for those.
	ownCols := own.Cols
	projected := g.Sub.Clone()
	projected.Items = nil
	for _, c := range ownCols {
		projected.Items = append(projected.Items, sqlparse.SelectItem{Expr: expr.NewColumn(c.Table, c.Name)})
	}
	for i, pid := range g.Missing {
		p, ok := n.cfg.Schema.Partition(g.Table, pid)
		if !ok || p.Predicate == nil {
			return compositeDraft{}, false // whole-table gaps cannot be delegated piecewise
		}
		subRFB.Queries = append(subRFB.Queries, trading.QueryRequest{
			QID: fmt.Sprintf("sub%d", i),
			SQL: localopt.RestrictTo(projected, g.Binding, p).SQL(),
		})
	}
	offers, _, err := ph.negotiate(trading.SealedBid{}, subRFB, trading.Sellers{Peers: peers, Policy: n.cfg.Faults})
	if err != nil {
		return compositeDraft{}, false
	}
	// Greedy cover of the missing partitions by cheapest compatible offers: an
	// offer is taken when every partition it brings is still needed, so it lies
	// inside the gap and is disjoint from what was already chosen.
	need := map[string]bool{}
	for _, pid := range g.Missing {
		need[pid] = true
	}
	sort.SliceStable(offers, func(i, j int) bool { return offers[i].Price < offers[j].Price })
	var chosen []trading.Offer
	for _, o := range offers {
		parts := o.Parts[strings.ToLower(g.Binding)]
		if len(parts) == 0 || !colsMatch(ownCols, o.Cols) ||
			slices.ContainsFunc(parts, func(pid string) bool { return !need[pid] }) {
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
		return compositeDraft{}, false
	}

	// Assemble the composite offer. Its buyer-facing SQL describes the full
	// covered extent (the union the node will deliver), projected onto the
	// same columns as the local partial so the shipped schema matches.
	covered := append(append([]string{}, g.Held...), g.Missing...)
	sort.Strings(covered)
	restriction := rewrite.PartitionRestriction(n.cfg.Schema, g.Table, g.Binding, covered)
	if restriction != nil && !expr.Implies(projected.Where, restriction) {
		projected.Where = expr.SimplifyPredicate(expr.And([]expr.Expr{projected.Where, restriction}))
	}
	props := cost.Valuation{Freshness: 1, Completeness: 1, TotalTime: own.Props.TotalTime, Rows: own.Props.Rows, Bytes: own.Props.Bytes}
	remoteMax := 0.0
	sc := &subcontract{localSQL: own.SQL}
	totalPurchased := 0.0
	for _, o := range chosen {
		remoteMax = math.Max(remoteMax, o.Props.TotalTime)
		props.Rows += o.Props.Rows
		props.Bytes += o.Props.Bytes
		totalPurchased += o.Price
		sc.remotes = append(sc.remotes, subRemote{peerID: o.SellerID, offerID: o.OfferID, sql: o.SQL})
	}
	props.TotalTime += remoteMax
	props.FirstRow = n.cfg.Cost.StartupCost + 2*n.cfg.Cost.NetLatency
	if props.TotalTime > 0 {
		props.RowsPerSec = float64(props.Rows) / (props.TotalTime / 1000)
	}
	return compositeDraft{paid: totalPurchased, sub: sc, Draft: pricecache.Draft{Kind: "s", Plan: own.Plan, Offer: trading.Offer{
		OfferID:  offerID,
		SQL:      projected.SQL(),
		Bindings: []string{g.Binding},
		Parts:    map[string][]string{strings.ToLower(g.Binding): covered},
		Complete: len(subtract(g.Relevant, covered)) == 0,
		Stripped: g.Agg,
		Cols:     ownCols,
		Props:    props,
	}}}, true
}

// subFetch is the executor's remote hook on the seller: it resolves the
// Remote leaves of a composite's plan by fetching each purchased fragment
// from its subcontractor. x is the exchange currently pulling the pipeline —
// the opening Execute, a continuation later — so a fetch is recorded, and its
// subcontractor's execution subtree grafted, under the exchange that caused it.
type subFetch struct {
	n     *Node
	batch int
	x     step
	peers map[string]trading.Peer // resolved once per composite, on the first fetch
}

// deliverer is the delivery surface of a subcontract peer.
type deliverer interface {
	Execute(trading.ExecReq) (trading.ExecResp, error)
}

// open implements exec.StreamFunc: the node acts as a buyer and fetches the
// fragment it bought, by offer id, with the one fetch client. The request is
// plain, so the subcontractor's whole answer is the opening reply, handed to
// the Remote leaf — which validates its shape — in the serving request's batches.
func (f *subFetch) open(peerID, sql, offerID string) (exec.RowStream, error) {
	n := f.n
	if f.peers == nil {
		f.peers = n.cfg.SubcontractPeers()
	}
	peer, ok := f.peers[peerID].(deliverer)
	if !ok {
		return nil, fmt.Errorf("node %s: subcontractor %s: no execution channel", n.cfg.ID, peerID)
	}
	// One exchange, recorded under the exchange pulling the composite, guarded
	// so a subcontractor that died after winning cannot hang it.
	call := func(req trading.ExecReq) (trading.ExecResp, error) { return f.x.fetch(peerID, peer, n.cfg.Faults, req) }
	batch := f.batch
	if batch <= 0 {
		batch = exec.DefaultBatchSize
	}
	st := &trading.Fetch{}
	if err := st.Open(call, trading.ExecReq{BuyerID: n.cfg.ID, OfferID: offerID, SQL: sql}, batch); err != nil {
		return nil, fmt.Errorf("node %s: subcontractor %s: %w", n.cfg.ID, peerID, err)
	}
	return st, nil
}

func colsMatch(a, b []trading.ColSpec) bool {
	return slices.EqualFunc(a, b, func(x, y trading.ColSpec) bool { return strings.EqualFold(x.Name, y.Name) })
}

func subtract(all, remove []string) []string {
	return slices.DeleteFunc(slices.Clone(all), func(a string) bool { return slices.Contains(remove, a) })
}
