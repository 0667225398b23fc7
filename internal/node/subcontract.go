package node

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/localopt"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/pricecache"
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
// sp is the parent span for the nested negotiation (nil when tracing is off).
func (n *Node) subcontractDrafts(rfb trading.RFB, e pricecache.Entry, sp *obs.Span, ids *minter) []compositeDraft {
	peers := n.cfg.SubcontractPeers()
	if len(peers) == 0 {
		return nil
	}
	type probe struct {
		tr                      sqlparse.TableRef
		own                     *pricecache.Draft
		held, missing, relevant []string
		offerID                 string
	}
	sel, rw := e.Sel, e.Rewritten
	var probes []probe
	for _, tr := range sel.From {
		b := strings.ToLower(tr.Binding())
		held, isKept := rw.Parts[b]
		if !isKept {
			continue // fully foreign relations are the buyer's problem
		}
		relevant := rw.Relevant[b]
		missing := subtract(relevant, held)
		if len(missing) == 0 {
			continue
		}
		// The node's own 1-way partial for this binding.
		var own *pricecache.Draft
		for i := range e.Drafts {
			if d := &e.Drafts[i]; d.Kind == "o" && len(d.Bindings) == 1 && strings.EqualFold(d.Bindings[0], tr.Binding()) {
				own = d
			}
		}
		if own == nil {
			continue
		}
		probes = append(probes, probe{tr: tr, own: own, held: held,
			missing: missing, relevant: relevant, offerID: ids.nextID("s")})
	}
	results := make([]*compositeDraft, len(probes))
	var wg sync.WaitGroup
	for i, pr := range probes {
		run := func(i int, pr probe) {
			if d, ok := n.buildComposite(rfb, ids.qid, sel, pr.tr, pr.own,
				pr.held, pr.missing, pr.relevant, peers, sp, pr.offerID); ok {
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

// buildComposite negotiates the missing partitions and drafts the composite
// offer with the assembly that delivers it.
func (n *Node) buildComposite(rfb trading.RFB, qid string, sel *sqlparse.Select,
	tr sqlparse.TableRef, own *pricecache.Draft, held, missing, relevant []string,
	peers map[string]trading.Peer, sp *obs.Span, offerID string) (compositeDraft, bool) {

	base := localopt.SubqueryFor(sel, []string{tr.Binding()})
	// The nested negotiation inherits the buyer's trace context, so a sampled
	// Depth-1 subcontract ships its own sellers' subtrees back up the chain:
	// they graft under this node's subcontract span, which in turn rides home
	// inside the node's RequestBids payload. Each probe is a negotiation of
	// its own — its QIDs restart at sub0 — so its id names the parent query and
	// binding it probes for: two probes under one parent RFB must not make a
	// subcontractor mint the same offer id for different SQL.
	subRFB := trading.RFB{
		RFBID:   rfb.RFBID + "/sub/" + n.cfg.ID + "/" + qid + "/" + tr.Binding(),
		BuyerID: n.cfg.ID,
		Depth:   rfb.Depth + 1,
		Trace:   rfb.Trace,
	}
	for i, pid := range missing {
		p, ok := n.cfg.Schema.Partition(tr.Name, pid)
		if !ok || p.Predicate == nil {
			return compositeDraft{}, false // whole-table gaps cannot be delegated piecewise
		}
		subRFB.Queries = append(subRFB.Queries, trading.QueryRequest{
			QID: fmt.Sprintf("sub%d", i),
			SQL: localopt.RestrictTo(base, tr.Binding(), p).SQL(),
		})
	}
	offers, _, err := trading.SealedBid{}.Collect(subRFB, trading.Sellers{Peers: peers, Policy: n.cfg.Faults}, sp)
	if err != nil {
		return compositeDraft{}, false
	}
	ownCols := own.Cols
	// Greedy cover of the missing partitions by cheapest compatible offers: an
	// offer is taken when every partition it brings is still needed, so it lies
	// inside the gap and is disjoint from what was already chosen.
	need := map[string]bool{}
	for _, pid := range missing {
		need[pid] = true
	}
	sort.SliceStable(offers, func(i, j int) bool { return offers[i].Price < offers[j].Price })
	var chosen []trading.Offer
	for _, o := range offers {
		parts := o.Parts[strings.ToLower(tr.Binding())]
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
	props.TotalTime = own.Props.TotalTime
	props.Rows = own.Props.Rows
	props.Bytes = own.Props.Bytes
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
		SQL:      compositeSQL.SQL(),
		Bindings: []string{tr.Binding()},
		Parts:    map[string][]string{strings.ToLower(tr.Binding()): covered},
		Complete: len(subtract(relevant, covered)) == 0,
		Stripped: sel.HasAggregates() || len(sel.GroupBy) > 0,
		Cols:     ownCols,
		Props:    props,
	}}}, true
}

// subFetch is the executor's remote hook on the seller: it resolves the
// Remote leaves of a composite's plan by fetching each purchased fragment
// from its subcontractor. sp and ctx belong to the exchange currently pulling
// the pipeline — the execute span at open, a sampled continuation's
// fetch-batch span later — so a fetch is recorded, and its subcontractor's
// execution subtree grafted, under the exchange that caused it.
type subFetch struct {
	n     *Node
	batch int
	sp    *obs.Span
	ctx   obs.TraceContext
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
	// One exchange, recorded under whichever exchange of the composite's own
	// delivery is pulling the pipeline, and guarded so a subcontractor that
	// died after winning cannot hang it (nil policy = direct call).
	call := func(req trading.ExecReq) (trading.ExecResp, error) {
		fs := f.sp.Child("fetch " + peerID)
		defer fs.End()
		if f.ctx.Sampled {
			req.Trace = f.ctx
			req.Trace.Parent = fs.ID()
		}
		sentAt := time.Now()
		resp, err := trading.GuardCall(n.cfg.Faults, peerID, func() (trading.ExecResp, error) {
			return peer.Execute(req)
		})
		if err != nil {
			fs.Set("error", err)
			return resp, err
		}
		fs.Graft(resp.Trace, sentAt, time.Now())
		return resp, nil
	}
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
	return slices.DeleteFunc(slices.Clone(all), func(a string) bool { return slices.Contains(remove, a) })
}
