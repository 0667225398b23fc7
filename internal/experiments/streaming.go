package experiments

// F18: streaming row-batch delivery. The chunked fetch protocol exists to
// decouple two costs from result cardinality: the latency to the first
// answer row and how much of the answer the buyer must hold at once. A
// single-relation federation sweeps the result size and runs the same
// purchased plan both ways — streamed through ExecuteResultStream (batched
// continuations, nothing retained) and materialized through ExecuteResult
// with a fetch batch larger than the answer, so every purchase ships whole
// in its opening exchange. The claim to
// reproduce: stream_first_ms stays roughly flat as rows grow while
// mat_first_ms (== its total: the first row of a materialized answer
// arrives when the whole answer does) grows with cardinality, and
// stream_peak_kb — the largest single batch the buyer buffers, in the wire
// accounting every message in the system is costed with — stays bounded by
// the batch size while mat_peak_kb is the whole answer and grows linearly.
// (Wire-accounted buffering, not live-heap deltas: the in-process netsim
// shares row memory between buyer and seller, so heap samples measure the
// simulator, not the protocol.)

import (
	"fmt"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// f18Fed builds a small federation whose single relation's cardinality is
// the swept variable: two partitions round-robined over three nodes, so the
// buyer always purchases at least one remote leaf and result transfer
// dominates as rows grow.
func f18Fed(rows int, seed int64) *workload.Federation {
	return workload.NewChain(workload.ChainOptions{
		Relations: 1, RowsPerRel: rows, Parts: 2, Nodes: 3, Replicas: 1,
		Seed: seed, SkipOracleData: true,
	})
}

const f18Query = "SELECT r1.pk, r1.fk, r1.v FROM r1"

func f18MS(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}

// rowsKB sizes a batch of rows with the same per-value accounting the
// trading messages use for wire costs.
func rowsKB(rows []value.Row) float64 {
	n := 0
	for _, r := range rows {
		n += 24
		for _, v := range r {
			if v.K == value.Str {
				n += len(v.S) + 4
			} else {
				n += 8
			}
		}
	}
	return float64(n) / 1024
}

// f18Streamed optimizes and pulls the answer through the cursor pipeline,
// retaining nothing. It reports time to the first batch, time to drain, the
// peak buffered batch, and the row count.
func f18Streamed(f *workload.Federation, seed int64) (firstMS, totalMS, peakKB float64, rows int64, err error) {
	cfg := f.BuyerConfig()
	res, err := core.Optimize(cfg, f.Comm(), f18Query)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	t0 := time.Now()
	cur, _, err := core.ExecuteResultStream(f.Comm(),
		&exec.Executor{Store: f.Nodes[f.Buyer].Store()}, res, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cur.Close()
	for {
		b, err := cur.Next()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if len(b) == 0 {
			break
		}
		if rows == 0 {
			firstMS = f18MS(t0)
		}
		rows += int64(len(b))
		if kb := rowsKB(b); kb > peakKB {
			peakKB = kb
		}
	}
	totalMS = f18MS(t0)
	if err := cur.Close(); err != nil {
		return 0, 0, 0, 0, err
	}
	return firstMS, totalMS, peakKB, rows, nil
}

// f18Materialized runs the same purchase with a batch no answer over card
// rows can fill: one exchange per leaf, drained into one result. The first
// row is available only when the whole answer is: firstMS == totalMS by
// construction, and the buyer buffers the entire answer at once.
func f18Materialized(f *workload.Federation, card int) (totalMS, peakKB float64, rows int64, err error) {
	cfg := f.BuyerConfig()
	cfg.FetchBatchRows = card + 1
	res, err := core.Optimize(cfg, f.Comm(), f18Query)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	out, err := core.ExecuteResult(f.Comm(),
		&exec.Executor{Store: f.Nodes[f.Buyer].Store()}, res)
	if err != nil {
		return 0, 0, 0, err
	}
	totalMS = f18MS(t0)
	peakKB = rowsKB(out.Rows)
	rows = int64(len(out.Rows))
	return totalMS, peakKB, rows, nil
}

// F18Streaming sweeps result cardinality and compares streamed against
// materialized delivery of the identical purchased plan.
func F18Streaming(cards []int, seed int64) *Table {
	t := &Table{
		ID:    "F18",
		Title: "streaming delivery: first-row latency and peak memory vs result size",
		Header: []string{"rows", "stream_first_ms", "mat_first_ms",
			"stream_total_ms", "mat_total_ms", "stream_peak_kb", "mat_peak_kb"},
	}
	for _, card := range cards {
		sFirst, sTotal, sPeak, sRows, err := f18Streamed(f18Fed(card, seed), seed)
		if err != nil {
			panic(fmt.Sprintf("F18 streamed %d rows: %v", card, err))
		}
		mTotal, mPeak, mRows, err := f18Materialized(f18Fed(card, seed), card)
		if err != nil {
			panic(fmt.Sprintf("F18 materialized %d rows: %v", card, err))
		}
		if sRows != int64(card) || mRows != int64(card) {
			panic(fmt.Sprintf("F18 row counts diverged at %d: streamed %d, materialized %d",
				card, sRows, mRows))
		}
		t.Rows = append(t.Rows, []string{
			d(int64(card)), f2(sFirst), f2(mTotal), f2(sTotal), f2(mTotal),
			f1(sPeak), f1(mPeak),
		})
	}
	return t
}
