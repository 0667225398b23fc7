package node

import (
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// nodeObs is the seller's one observation seam: everything a node reports
// to — the attached tracer, the trading ledger, the trace log and the
// pre-resolved node.<id>.* instruments — behind one pointer that is never nil
// and swapped as a unit. Every field is nil-safe, so the seller paths
// (RequestBids → rewrite → DP pricing, Execute, cursor completion, lifecycle)
// load the pointer once and call straight through whatever is attached,
// without touching the metric registry.
type nodeObs struct {
	// tracer records requests that carry no sampled trace context; a sampled
	// request records into a subtree of its own that ships back to the buyer
	// (see span).
	tracer   *obs.Tracer
	ledger   *ledger.Ledger // seller-side pricing, serving and membership events
	traceLog *obs.TraceLog  // the most recent subtrees shipped, for /trace/last

	rfbs              *obs.Counter // RFBs received
	offersPriced      *obs.Counter // DP-priced partial-result offers
	offersView        *obs.Counter // offers derived from materialized views
	offersPartialAgg  *obs.Counter // partial-aggregate (pushdown) offers
	offersSubcontract *obs.Counter // §3.5 composite offers
	offersWon         *obs.Counter // awards received
	rewritesEmpty     *obs.Counter // queries the node could not bid on
	execs             *obs.Counter // purchased answers executed
	execsPriced       *obs.Counter // ... on the plan their offer was priced with
	execsText         *obs.Counter // ... planned from the request's text

	cacheHits         *obs.Counter // price-cache hits (rewrite+DP skipped)
	cacheMisses       *obs.Counter // price-cache misses (full pricing ran)
	cacheEvictions    *obs.Counter // price-cache LRU evictions
	pricingsCoalesced *obs.Counter // duplicate (RFB, query) pricings single-flighted

	rfbsQueued    *obs.Counter // Depth-0 RFBs that had to wait for admission
	rfbQueueDepth *obs.Gauge   // Depth-0 RFBs currently waiting for admission
	rfbsInflight  *obs.Gauge   // Depth-0 RFBs currently holding an admission slot

	rewriteMS *obs.Histogram
	dpMS      *obs.Histogram
	execMS    *obs.Histogram
}

// span opens the span one served request records into. A sampled request
// gets a detached tree whose finished subtree ship sends back to the buyer;
// it bypasses the attached tracer, so an in-process federation (buyer and
// sellers sharing one tracer) still sees each subtree exactly once. Anything
// else lands on the attached tracer, nil when there is none.
func (o *nodeObs) span(id, name string, tc obs.TraceContext) *obs.Span {
	if tc.Sampled {
		return obs.NewTracer().Start(id, name)
	}
	return o.tracer.Start(id, name)
}

// ship returns the finished span's subtree for the reply of a sampled
// request, keeping a copy in the trace log; nil for any other request.
func (o *nodeObs) ship(sp *obs.Span, tc obs.TraceContext) *obs.SpanPayload {
	if !tc.Sampled {
		return nil
	}
	p := sp.Payload()
	o.traceLog.Record(p)
	return p
}

// ran records which plan an execution opens: the one its offer was priced
// with, or one planned from the request's text. On the execute span it tells a
// reader of quoted_ms whether the quote is about the plan that ran.
func (o *nodeObs) ran(sp *obs.Span, priced bool) {
	if priced {
		o.execsPriced.Inc()
		sp.Set("plan", "priced")
	} else {
		o.execsText.Inc()
		sp.Set("plan", "text")
	}
}

// swapObs installs a copy of the current observer with edit applied. The
// setters may race each other and in-flight calls: a call keeps the observer
// it loaded, and no setter undoes another's field.
func (n *Node) swapObs(edit func(*nodeObs)) {
	for {
		old := n.obsv.Load()
		next := *old
		edit(&next)
		if n.obsv.CompareAndSwap(old, &next) {
			return
		}
	}
}

// SetObs attaches a tracer and metrics registry to the node (both may be
// nil, which detaches them). Safe to call concurrently with negotiations.
// Metric names are prefixed "node.<id>.".
func (n *Node) SetObs(tr *obs.Tracer, m *obs.Metrics) {
	p := "node." + n.cfg.ID + "."
	inst := nodeObs{
		tracer:            tr,
		rfbs:              m.Counter(p + "rfbs"),
		offersPriced:      m.Counter(p + "offers_priced"),
		offersView:        m.Counter(p + "offers_view"),
		offersPartialAgg:  m.Counter(p + "offers_partialagg"),
		offersSubcontract: m.Counter(p + "offers_subcontract"),
		offersWon:         m.Counter(p + "offers_won"),
		rewritesEmpty:     m.Counter(p + "rewrites_empty"),
		execs:             m.Counter(p + "execs"),
		execsPriced:       m.Counter(p + "execs_priced"),
		execsText:         m.Counter(p + "execs_text"),
		cacheHits:         m.Counter(p + "pricecache_hits"),
		cacheMisses:       m.Counter(p + "pricecache_misses"),
		cacheEvictions:    m.Counter(p + "pricecache_evictions"),
		pricingsCoalesced: m.Counter(p + "pricings_coalesced"),
		rfbsQueued:        m.Counter(p + "rfbs_queued"),
		rfbQueueDepth:     m.Gauge(p + "rfb_queue_depth"),
		rfbsInflight:      m.Gauge(p + "rfbs_inflight"),
		rewriteMS:         m.Histogram(p + "rewrite_ms"),
		dpMS:              m.Histogram(p + "dp_ms"),
		execMS:            m.Histogram(p + "exec_ms"),
	}
	n.swapObs(func(o *nodeObs) {
		inst.ledger, inst.traceLog = o.ledger, o.traceLog
		*o = inst
	})
}

// SetLedger attaches a trading ledger recording this node's seller-side
// events: per-query pricing (with price-cache provenance), measured
// execution of purchased answers, and lifecycle transitions. Nil detaches.
func (n *Node) SetLedger(l *ledger.Ledger) { n.swapObs(func(o *nodeObs) { o.ledger = l }) }

// SetTraceLog attaches a trace log that retains the most recent sampled
// subtrees this node shipped, for live exposition at /trace/last. Nil
// detaches.
func (n *Node) SetTraceLog(l *obs.TraceLog) { n.swapObs(func(o *nodeObs) { o.traceLog = l }) }

// SetFaultPolicy attaches (or with nil detaches) the fault policy guarding
// the node's subcontract exchanges. Call it during federation setup, before
// negotiations start: unlike SetObs it is not synchronized against in-flight
// calls.
func (n *Node) SetFaultPolicy(p *trading.FaultPolicy) { n.cfg.Faults = p }

// msSince converts an elapsed interval to histogram milliseconds.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}
