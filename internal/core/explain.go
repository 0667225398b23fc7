package core

import (
	"fmt"
	"strconv"
	"strings"

	"qtrade/internal/exec"
	"qtrade/internal/ledger"
	"qtrade/internal/plan"
)

// ExplainAnalyze renders the winning plan with per-operator actuals next to
// the plan generator's estimates — the EXPLAIN ANALYZE of the federation.
// st carries the actuals recorded by an Executor whose Stats field was set
// during execution; pass nil for an estimates-only rendering (operators then
// show "not executed", which is also what a purchased-but-pruned branch
// shows after a partial run). The rows are the ones a flight dossier records.
func ExplainAnalyze(res *Result, st *exec.RunStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- response time %.2f ms, total work %.2f ms, %d offers purchased\n",
		res.Candidate.ResponseTime, res.Candidate.TotalWork, len(res.Candidate.Offers))
	ops, _ := operatorStats(res, st)
	for i, op := range ops {
		est := "?"
		if op.EstRows >= 0 {
			est = strconv.FormatInt(op.EstRows, 10)
		}
		fmt.Fprintf(&sb, "%s%s  (est rows=%s", strings.Repeat("  ", op.Depth), op.Op, est)
		if op.Executed {
			fmt.Fprintf(&sb, " actual rows=%d", op.Rows)
			if i+1 < len(ops) && ops[i+1].Depth > op.Depth { // pre-order: a child follows
				fmt.Fprintf(&sb, " in=%d", op.RowsIn)
			}
			fmt.Fprintf(&sb, " time=%.3fms", op.TimeMS)
			if op.Calls > 1 {
				fmt.Fprintf(&sb, " calls=%d", op.Calls)
			}
		} else {
			sb.WriteString(" not executed")
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}

// operatorStats is the one est-vs-actual walk: the winning plan in
// pre-order, each operator's generator estimate (plan.EstOf; remote leaves
// always know theirs, the seller's offered cardinality) beside its actuals
// in st, and the worst cardinality error among operators that have both.
func operatorStats(res *Result, st *exec.RunStats) (ops []ledger.OpStat, cardErr float64) {
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		op := ledger.OpStat{Op: n.Describe(), Depth: depth, EstRows: -1}
		if est, ok := plan.EstOf(n); ok {
			op.EstRows = est
		}
		if a, ok := st.Get(n); ok {
			op.Executed, op.Rows, op.RowsIn, op.Calls = true, a.RowsOut, a.RowsIn, a.Calls
			op.TimeMS = float64(a.Elapsed.Microseconds()) / 1000
			if op.EstRows >= 0 {
				// +1 smoothing keeps zero-row operators comparable instead of
				// dividing by zero.
				est, act := float64(op.EstRows)+1, float64(a.RowsOut)+1
				op.ErrRatio = max(est/act, act/est)
				cardErr = max(cardErr, op.ErrRatio)
			}
		}
		ops = append(ops, op)
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(res.Candidate.Root, 0)
	return ops, cardErr
}
