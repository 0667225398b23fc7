package ledger

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ratioBounds are the quoted-vs-actual ratio histogram's bucket upper
// bounds; the last bucket is open (+Inf). A perfectly calibrated seller
// lands everything in the (0.8, 1.25] band around 1.0; chronic
// underquoting (actual ≫ quoted) piles into the right tail.
var ratioBounds = [...]float64{0.25, 0.5, 0.8, 1.25, 2, 4, 8, 16}

const ratioBuckets = len(ratioBounds) + 1

// ewmaAlpha weights the exponentially-weighted moving average of each
// seller's relative quote error; 0.2 ≈ a window of the last ~10 executions.
const ewmaAlpha = 0.2

// sellerCal accumulates one seller's calibration state.
type sellerCal struct {
	bids, wins, execs int64
	ratioSum          float64 // sum of actual/quoted over executions
	ratioMin          float64
	ratioMax          float64
	hist              [ratioBuckets]int64
	ewmaErr           float64 // EWMA of (actual-quoted)/quoted, signed
	ewmaSet           bool
}

// calibrator aggregates quote accuracy per seller. Unlike the negotiation
// ring it is unbounded: it keeps one entry per seller for the lifetime of the
// ledger.
type calibrator struct {
	mu      sync.Mutex
	sellers map[string]*sellerCal
}

func (c *calibrator) init() { c.sellers = map[string]*sellerCal{} }

func (c *calibrator) seller(id string) *sellerCal {
	s, ok := c.sellers[id]
	if !ok {
		s = &sellerCal{}
		c.sellers[id] = s
	}
	return s
}

func (c *calibrator) bid(seller string) {
	c.mu.Lock()
	c.seller(seller).bids++
	c.mu.Unlock()
}

func (c *calibrator) win(seller string) {
	c.mu.Lock()
	c.seller(seller).wins++
	c.mu.Unlock()
}

// observe folds one measured execution into the seller's ratio histogram
// and EWMA error. quoted must be > 0 (caller checks).
func (c *calibrator) observe(seller string, quotedMS, actualMS float64) {
	ratio := actualMS / quotedMS
	i := 0
	for i < len(ratioBounds) && ratio > ratioBounds[i] {
		i++
	}
	c.mu.Lock()
	s := c.seller(seller)
	s.execs++
	s.ratioSum += ratio
	if s.execs == 1 || ratio < s.ratioMin {
		s.ratioMin = ratio
	}
	if ratio > s.ratioMax {
		s.ratioMax = ratio
	}
	s.hist[i]++
	relErr := ratio - 1
	if !s.ewmaSet {
		s.ewmaErr, s.ewmaSet = relErr, true
	} else {
		s.ewmaErr = ewmaAlpha*relErr + (1-ewmaAlpha)*s.ewmaErr
	}
	c.mu.Unlock()
}

// RatioBucket is one bucket of a seller's quoted-vs-actual distribution.
// LE is the bucket's upper bound rendered as text ("+Inf" on the last
// bucket) because JSON has no infinity literal.
type RatioBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// SellerReport is one seller's calibration summary. Ratio fields are
// actual/quoted: 1.0 is a perfect quote, above 1 the seller underquoted
// (ran slower than promised), below 1 it overquoted.
type SellerReport struct {
	Seller    string        `json:"seller"`
	Bids      int64         `json:"bids"`
	Wins      int64         `json:"wins"`
	WinRate   float64       `json:"win_rate"`
	Execs     int64         `json:"execs"`
	MeanRatio float64       `json:"mean_ratio,omitempty"`
	P50Ratio  float64       `json:"p50_ratio,omitempty"`
	P95Ratio  float64       `json:"p95_ratio,omitempty"`
	MinRatio  float64       `json:"min_ratio,omitempty"`
	MaxRatio  float64       `json:"max_ratio,omitempty"`
	EWMAErr   float64       `json:"ewma_err"` // signed relative error, EWMA
	RatioHist []RatioBucket `json:"ratio_hist,omitempty"`
}

// Report is the ledger's calibration roll-up: how well each seller's quotes
// track measured reality. Where the time went is the metrics registry's: each
// phase's _ms histogram on /metrics.
type Report struct {
	Negotiations int            `json:"negotiations"` // retained in the ring
	Sellers      []SellerReport `json:"sellers"`
}

// quantile approximates the q-quantile of a bucketed ratio distribution as
// the containing bucket's upper bound, clamped to the observed max.
func (s *sellerCal) quantile(q float64) float64 {
	if s.execs == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.execs)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.hist {
		seen += n
		if seen >= rank {
			if i < len(ratioBounds) {
				return math.Min(ratioBounds[i], s.ratioMax)
			}
			return s.ratioMax
		}
	}
	return s.ratioMax
}

// Calibration builds the current calibration report, sellers sorted by name.
// Safe to call while negotiations are in flight.
func (l *Ledger) Calibration() Report {
	if l == nil {
		return Report{}
	}
	rep := Report{Negotiations: l.Len()}
	c := &l.cal
	c.mu.Lock()
	names := make([]string, 0, len(c.sellers))
	for n := range c.sellers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := c.sellers[n]
		sr := SellerReport{Seller: n, Bids: s.bids, Wins: s.wins, Execs: s.execs, EWMAErr: s.ewmaErr}
		if s.bids > 0 {
			sr.WinRate = float64(s.wins) / float64(s.bids)
		}
		if s.execs > 0 {
			sr.MeanRatio = s.ratioSum / float64(s.execs)
			sr.P50Ratio = s.quantile(0.50)
			sr.P95Ratio = s.quantile(0.95)
			sr.MinRatio = s.ratioMin
			sr.MaxRatio = s.ratioMax
			for i, cnt := range s.hist {
				le := "+Inf"
				if i < len(ratioBounds) {
					le = strconv.FormatFloat(ratioBounds[i], 'g', -1, 64)
				}
				sr.RatioHist = append(sr.RatioHist, RatioBucket{LE: le, Count: cnt})
			}
		}
		rep.Sellers = append(rep.Sellers, sr)
	}
	c.mu.Unlock()
	return rep
}

// Text renders the report as an aligned table for terminal display (qtsql
// \calibration).
func (r Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "negotiations retained: %d\n", r.Negotiations)
	if len(r.Sellers) > 0 {
		b.WriteString("\nseller calibration (ratio = measured/quoted; >1 underquoted):\n")
		fmt.Fprintf(&b, "  %-10s %6s %6s %8s %6s %10s %10s %10s %9s\n",
			"seller", "bids", "wins", "win_rate", "execs", "mean_ratio", "p50_ratio", "p95_ratio", "ewma_err")
		for _, s := range r.Sellers {
			fmt.Fprintf(&b, "  %-10s %6d %6d %8.2f %6d %10.2f %10.2f %10.2f %+8.0f%%\n",
				s.Seller, s.Bids, s.Wins, s.WinRate, s.Execs,
				s.MeanRatio, s.P50Ratio, s.P95Ratio, 100*s.EWMAErr)
		}
	}
	return b.String()
}
