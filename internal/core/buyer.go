package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// Comm is the buyer's communication surface: negotiate through Peers, notify
// winners through Award, and fetch purchased answers through Fetch at
// execution time.
type Comm interface {
	Peers() map[string]trading.Peer
	Award(to string, aw trading.Award) error
	Fetch(to string, req trading.ExecReq) (trading.ExecResp, error)
}

// LocalSeller lets the buyer fold its own node's offers into the pool (a
// node outsources a query only when some remote offer beats local
// execution). node.Node satisfies it.
type LocalSeller interface {
	RequestBids(trading.RFB) (trading.BidReply, error)
}

// Config configures the buyer side of the QT optimizer.
type Config struct {
	ID     string
	Schema *catalog.Schema
	Cost   *cost.Model  // nil = cost.Default()
	Weight cost.Weights // zero = cost.DefaultWeights()
	// Protocol is the nested negotiation of steps B2/B3/S3; nil = SealedBid.
	Protocol trading.Protocol
	// Mode selects the buyer plan generator; empty = GenDP.
	Mode PlanGenMode
	// MaxIterations bounds the trading loop; 0 = 5.
	MaxIterations int
	// Strategy produces the buyer's value estimates (B1); nil = anchored.
	Strategy trading.BuyerStrategy
	// Self contributes the buyer's own offers at zero network cost.
	Self LocalSeller
	// OnIteration, when set, observes each trading iteration: the iteration
	// number, the best candidate value so far and the offer pool size (used
	// by the convergence experiment).
	OnIteration func(iter int, bestValue float64, poolSize int)
	// ExcludeSellers drops the named peers from the negotiation (used by
	// execution-time recovery to re-optimize around a failed seller).
	ExcludeSellers map[string]bool
	// Directory, when set, health-gates the peer view resolved for this
	// negotiation: peers recorded as draining or left — or whose circuit
	// breaker is open — are skipped before any RFB is sent, and call
	// outcomes feed back into it (a drain rejection of any exchange,
	// execution-time fetches included, marks the peer draining; an answered
	// RFB refreshes last-seen and clears an observed drain). Nil gates
	// nothing.
	Directory *trading.Directory
	// PeerLatency, when set, returns the buyer's measured one-way latency
	// to a seller in cost-model time units. Sellers price delivery with
	// their own network constants; the buyer corrects each offer's total
	// time with its private knowledge of the path, so nearby replicas win
	// over far ones in heterogeneous (WAN) federations.
	PeerLatency func(sellerID string) float64
	// Faults, when set, is the policy every exchange with a seller runs under
	// — RFB and improvement rounds (per-call timeout, bounded retry, per-peer
	// breaker, and a straggler-cutting deadline per round), awards, and every
	// fetch, continuation and cursor release of an execution of the resulting
	// plan, through whichever entry point (it rides on the Result). It also
	// unlocks the graceful-degradation path of OptimizeAndExecute:
	// standing-offer fallback before re-optimization. Nil (the default) leaves
	// every call direct.
	Faults *trading.FaultPolicy
	// Tracer, when set, records one span tree for this optimization:
	// iterations → negotiation rounds → per-seller RFBs (with the sellers'
	// own pricing subtrees grafted under them when sampled), plus plan
	// generation and the predicates analyser. Nil (the default) costs
	// nothing.
	Tracer *obs.Tracer
	// Sampling decides which optimizations carry a distributed trace context
	// across the federation. Nil means obs.SampleAlways. Ignored without a
	// Tracer. Share one *Sampling across optimizations: it owns the seeded
	// rng for obs.SampleRatio.
	Sampling *obs.Sampling
	// Metrics, when set, receives buyer-side counters/histograms under
	// "buyer.<id>.". Nil costs nothing.
	Metrics *obs.Metrics
	// Ledger, when set, records this negotiation's economic event chain —
	// RFBs, bids, rounds, awards, and at execution time the measured actuals
	// behind every purchase — and feeds the per-seller quoted-vs-actual
	// calibration. Nil (the default) adds zero allocations.
	Ledger *ledger.Ledger
	// Flight, when set, assembles one flight dossier per completed
	// execution of this buyer's queries — grafted trace spans, the ledger
	// event chain, per-operator est-vs-actual rows, quoted-vs-measured cost
	// — and admits it to the recorder (outliers are kept by its trigger
	// rules). Executions automatically collect exec.RunStats when set. Nil
	// (the default) skips dossier assembly entirely.
	Flight *flight.Recorder
	// Workers bounds the buyer's own fan-out: the per-round RFB/improve
	// dispatch of any protocol (trading.Sellers.Workers) and the
	// execution-time opening of remote plan leaves. 0 (the default) means one
	// in-flight call per seller — the full fan-out; 1 means strictly serial in
	// deterministic order; n > 1 caps the in-flight calls at n. Whatever the
	// setting, the assembled offer pool and the chosen plan are byte-identical
	// (replies are collected positionally and re-sorted).
	Workers int
	// FetchBatchRows sets the row-batch granularity of execution-time
	// fetches: purchased answers stream in batches of n rows, n <= 0 (the
	// default) meaning exec.DefaultBatchSize. A batch larger than the answer
	// ships it whole in the opening exchange. The answer is byte-identical
	// at any setting — only delivery granularity, peak memory, and first-row
	// latency change.
	FetchBatchRows int
}

// The loop's two fixed bounds: the M of IDP-M(2, M), and how many new queries
// the predicates analyser may propose per iteration.
const (
	idpKeep       = 5
	maxNewQueries = 12
)

// Stats reports what one optimization cost.
type Stats struct {
	Iterations     int
	RFBsSent       int
	OffersReceived int
	PoolSize       int
	ProtocolRounds int
	QueriesAsked   int
	Improvements   int
	WallTime       time.Duration

	// Seller-side telemetry, aggregated from the offers the negotiation saw
	// (so the F7/F10 experiments can report it without re-instrumenting).
	OffersPriced      int // DP-priced partial-result offers received
	ViewOffers        int // offers derived from materialized views
	PartialAggOffers  int // partial-aggregate (pushdown) offers
	EmptyBidResponses int // RFB replies carrying no offers: the seller's rewrite produced nothing
}

// Result is the outcome of a QT optimization: the winning candidate plan and
// the offers it purchases. Pool retains the full standing-offer pool of the
// final iteration (sorted by OfferID) so execution-time recovery can fall
// back to the next-best standing offer without re-negotiating.
type Result struct {
	SQL       string
	Candidate Candidate
	Stats     Stats
	Pool      []trading.Offer
	// BuyerID and TraceCtx carry the optimization's identity and sampling
	// decision into execution, so ExecuteResultTraced extends the same
	// federation-wide trace across the purchased-answer fetches.
	BuyerID  string
	TraceCtx obs.TraceContext
	// Workers carries Config.Workers into execution so the remote-leaf
	// prefetch honours the same fan-out bound as the negotiation.
	Workers int
	// FetchBatch carries Config.FetchBatchRows into execution.
	FetchBatch int
	// LedgerRec is this negotiation's open trading-ledger record (nil when
	// Config.Ledger was unset), carried into execution so the fetch/execute
	// actuals land in the same event chain as the bids and awards.
	LedgerRec *ledger.Rec
	// flight carries the negotiation's identity into the execution
	// finalizers that assemble its dossier (nil when Config.Flight unset).
	flight *flightCapture
	// faults and dir carry Config.Faults and Config.Directory into execution:
	// every entry point, whatever Comm it is handed, fetches, continues and
	// releases cursors under the policy the RFB was sent under (see reach).
	faults *trading.FaultPolicy
	dir    *trading.Directory
}

var rfbSeq atomic.Int64

// withDefaults fills the unset knobs.
func (cfg Config) withDefaults() Config {
	if cfg.Cost == nil {
		cfg.Cost = cost.Default()
	}
	if (cfg.Weight == cost.Weights{}) {
		cfg.Weight = cost.DefaultWeights()
	}
	if cfg.Protocol == nil {
		cfg.Protocol = trading.SealedBid{}
	}
	if cfg.Mode == "" {
		cfg.Mode = GenDP
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 5
	}
	if cfg.Strategy == nil {
		cfg.Strategy = trading.AnchoredBuyer{}
	}
	return cfg
}

// selfBids asks the buyer's own node for offers on the round's RFB: they join
// the pool at zero network cost, so a query is outsourced only when a remote
// offer beats local execution. A failing or absent local seller bids nothing.
func selfBids(self LocalSeller, rfb trading.RFB, ob *negObs) []trading.Offer {
	if self == nil {
		return nil
	}
	ph := ob.phase("self-bids")
	defer ph.end()
	if rfb.Trace.Sampled {
		rfb.Trace.Parent = ph.sp.ID()
	}
	rep, err := self.RequestBids(rfb)
	if err != nil {
		return nil
	}
	ph.sp.Set("offers", len(rep.Offers))
	ph.sp.Graft(rep.Trace, ph.t0, time.Now())
	return rep.Offers
}

// Optimize runs the full iterative QT algorithm (steps B1–B8 of Figure 2)
// for the given SQL text and returns the best distributed plan found.
// Nothing is executed; call ExecuteResult with the returned plan to fetch
// the purchased answers and produce rows. What the loop does is reported to
// one negObs (observe.go); no sink is fed from here.
func Optimize(cfg Config, comm Comm, sql string) (*Result, error) {
	cfg = cfg.withDefaults()
	ob := newNegObs(&cfg)
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	plan.Qualify(sel, cfg.Schema)
	gen, err := newPlanGen(sel, cfg.Schema, cfg.Cost, cfg.Mode, idpKeep, cfg.PeerLatency)
	if err != nil {
		return nil, fmt.Errorf("core: no distributed plan possible: %w", err)
	}
	ob.begin(sql, sel.SQL())
	defer ob.close()
	res := &Result{SQL: sel.SQL(), BuyerID: cfg.ID, Workers: cfg.Workers,
		FetchBatch: cfg.FetchBatchRows, faults: cfg.Faults, dir: cfg.Directory}
	if gen.empty != nil {
		// Known empty before B1: nothing is asked for and nothing bought.
		res.Candidate = *gen.empty
		return ob.done(res), nil
	}

	bestPrice := map[string]float64{} // qid -> best price seen
	queries := []trading.QueryRequest{{QID: "q0", SQL: sel.SQL()}}
	asked := map[string]bool{sel.SQL(): true}
	analyse := newAnalyser(sel, cfg.Schema)
	to := &sellers{comm: comm, self: cfg.ID, pol: cfg.Faults, dir: cfg.Directory}
	view := to.round(&cfg, &ob.empty)
	var best *Candidate
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		ob.iteration(iter)
		// B1: strategic value estimates for the queries in Q.
		for i := range queries {
			queries[i].EstValue = cfg.Strategy.Estimate(queries[i].QID, bestPrice[queries[i].QID])
		}
		// B2/B3 + S1–S3: the nested negotiation, then the buyer's own bids.
		rfb := trading.RFB{
			RFBID:   fmt.Sprintf("%s-rfb%d", cfg.ID, rfbSeq.Add(1)),
			BuyerID: cfg.ID,
			Trace:   ob.tctx,
			Queries: queries,
		}
		ph := ob.rfbIssued(rfb, len(view.Peers))
		offers, rounds, err := cfg.Protocol.Collect(rfb, view, ph.sp)
		ph.end()
		if err != nil {
			return nil, fmt.Errorf("core: negotiation failed: %w", err)
		}
		offers = append(offers, selfBids(cfg.Self, rfb, ob)...)
		for _, o := range offers {
			gen.take(o)
			if b, ok := bestPrice[o.QID]; !ok || o.Price < b {
				bestPrice[o.QID] = o.Price
			}
		}
		ob.collected(offers, rounds, len(gen.offers))

		// B4: candidate plan generation from the standing pool (the generator
		// owns it, in OfferID order, so equal-cost ties break reproducibly).
		ph = ob.phase("plangen")
		ph.sp.Set("mode", string(cfg.Mode))
		ph.sp.Set("pool", len(gen.offers))
		cands, err := gen.run()
		ph.end()
		if err != nil {
			if iter == 1 {
				// The paper: abort when the first iteration yields no
				// candidate plan at all.
				return nil, fmt.Errorf("core: no distributed plan possible: %w", err)
			}
			ob.iterationEnd()
			break
		}
		ph.sp.Set("candidates", len(cands))
		improved := best == nil || ValueOf(cfg.Weight, &cands[0]) < ValueOf(cfg.Weight, best)*(1-1e-9)
		if improved {
			b := cands[0]
			best = &b
		}
		ob.planned(improved, ValueOf(cfg.Weight, best))

		// B5/B6: the predicates analyser proposes the next round's queries
		// from the top candidates.
		ph = ob.phase("analyse")
		newSQLs := analyse.next(cands[:min(3, len(cands))], asked, maxNewQueries)
		ph.sp.Set("new_queries", len(newSQLs))
		ph.end()
		ob.iterationEnd()
		// B7: terminate when neither the plan nor Q changed.
		if !improved && len(newSQLs) == 0 {
			break
		}
		for _, s := range newSQLs {
			queries = append(queries, trading.QueryRequest{QID: fmt.Sprintf("q%d", len(queries)), SQL: s})
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: optimization produced no plan")
	}

	// B8: award the winning offers.
	ph := ob.phase("award")
	ph.sp.Set("offers", len(best.Offers))
	for _, o := range best.Offers {
		ob.awarded(o)
		to.award(o)
	}
	ph.end()
	res.Candidate, res.Pool = *best, gen.standing()
	return ob.done(res), nil
}

// ExecuteResult runs the winning plan: Remote leaves are fetched from their
// sellers through comm, local operators run on the buyer's executor. store
// may be nil when the plan has no local scans.
func ExecuteResult(comm Comm, localExec *exec.Executor, res *Result) (*exec.Result, error) {
	return ExecuteResultTraced(comm, localExec, res, nil)
}

// ExecuteResultTraced is ExecuteResult recording the execution on tr: a root
// execute span with one fetch child per remote leaf, under which a sampled
// seller's execution subtree (including its subcontract fetches) is grafted.
// The sampling decision is the one minted at optimization time
// (res.TraceCtx), so one negotiation stays one trace end to end. A nil
// tracer is exactly ExecuteResult.
func ExecuteResultTraced(comm Comm, localExec *exec.Executor, res *Result, tr *obs.Tracer) (*exec.Result, error) {
	cur, cols, err := ExecuteResultStream(comm, localExec, res, tr)
	if err != nil {
		return nil, err
	}
	return drainResult(cur, cols)
}

// executeUnder is ExecuteResultTraced under a span the caller owns and ends
// (nil root = untraced, no context stamped on the wire); recovery runs each
// attempt's re-executions under one such span.
func executeUnder(to *sellers, localExec *exec.Executor, res *Result, root *obs.Span) (*exec.Result, error) {
	h, err := openResult(to, localExec, res, root)
	if err != nil {
		return nil, err
	}
	return drainResult(h, res.Candidate.Root.Schema())
}

// drainResult materializes an opened plan: the whole answer is the stream
// pulled to its end and closed.
func drainResult(cur exec.Cursor, cols []expr.ColumnID) (*exec.Result, error) {
	rows, err := exec.Drain(cur)
	if err != nil {
		return nil, err
	}
	return &exec.Result{Cols: cols, Rows: rows}, nil
}

// buildPlanExecutor assembles the executor that runs h's plan: every Remote
// leaf is a stream opened at res.FetchBatch rows per exchange (the default
// batch when unset; a batch larger than the answer ships it whole in the
// opening exchange). When the plan buys from more than one remote leaf and
// res.Workers allows it, the leaves are opened concurrently (see
// prefetchStreams). The returned cleanup releases prefetched streams the
// plan walk never consumed (e.g. after a failure in another leaf) and must
// be called once execution is done.
func buildPlanExecutor(h *streamHandle, localExec *exec.Executor) (*exec.Executor, func()) {
	res := h.res
	ex := &exec.Executor{BatchSize: res.FetchBatch}
	if ex.BatchSize <= 0 {
		ex.BatchSize = exec.DefaultBatchSize
	}
	if localExec != nil {
		ex.Store = localExec.Store
		ex.Stats = localExec.Stats
	}
	if res.flight != nil && ex.Stats == nil {
		// The dossier's per-operator est-vs-actual rows need RunStats; the
		// recorder being on opts the execution in automatically.
		ex.Stats = exec.NewRunStats()
	}
	openOne := func(nodeID, sql, offerID string) (exec.RowStream, error) {
		return openRemoteStream(h, nodeID, sql, offerID, ex.BatchSize)
	}
	ex.FetchStream = openOne
	cleanup := func() {}
	// plan.Remotes walks the tree in the same pre-order the executor fetches.
	if remotes := plan.Remotes(res.Candidate.Root); len(remotes) > 1 && res.Workers != 1 {
		ex.FetchStream, cleanup = prefetchStreams(remotes, res.Workers, openOne)
	}
	return ex, cleanup
}

// ExplainResult renders the winning plan and its purchases.
func ExplainResult(res *Result) string {
	out := fmt.Sprintf("-- response time %.2f ms, total work %.2f ms, %d offers purchased\n",
		res.Candidate.ResponseTime, res.Candidate.TotalWork, len(res.Candidate.Offers))
	return out + plan.Explain(res.Candidate.Root)
}
