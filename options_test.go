package qtrade

import (
	"reflect"
	"testing"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// TestEveryOptionReachesItsConfigField applies each With* option to the
// configuration it edits and checks the field its doc comment names — an
// option no test, example or command calls must still do what it says.
func TestEveryOptionReachesItsConfigField(t *testing.T) {
	nodeCfg := func(o NodeOption) node.Config {
		var c node.Config
		o(&c)
		return c
	}
	buyerCfg := func(o OptimizeOption) core.Config {
		var c core.Config
		o(&c)
		return c
	}
	fed := func(o FederationOption) *Federation {
		f := NewFederation(NewSchema(), o)
		t.Cleanup(func() { f.MetricsHistory().Stop() })
		return f
	}
	sampling := SampleRatio(0.25).Seeded(7).KeepSlower(time.Second)
	for _, tc := range []struct {
		option string
		holds  bool
	}{
		{"WithStrategy(Competitive)", reflect.TypeOf(nodeCfg(WithStrategy(Competitive)).Strategy) == reflect.TypeOf(trading.NewCompetitive())},
		{"WithStrategy(Cooperative)", nodeCfg(WithStrategy(Cooperative)).Strategy == trading.Cooperative{}},
		{"WithoutViewOffers", nodeCfg(WithoutViewOffers()).DisableViews},
		{"WithWorkers", nodeCfg(WithWorkers(3)).Workers == 3},
		{"WithMaxInflightRFBs", nodeCfg(WithMaxInflightRFBs(5)).MaxInflightRFBs == 5},
		{"WithPriceCache", nodeCfg(WithPriceCache(-1)).PriceCacheSize == -1},
		{"WithLoadAwarePricing", nodeCfg(WithLoadAwarePricing()).LoadAwarePricing},

		{"WithPlanGenerator", buyerCfg(WithPlanGenerator("idp")).Mode == core.PlanGenMode("idp")},
		{"WithProtocol(iterative)", buyerCfg(WithProtocol("iterative")).Protocol == trading.IterativeBid{MaxRounds: 3}},
		{"WithProtocol(bargain)", buyerCfg(WithProtocol("bargain")).Protocol == trading.Bargain{MaxRounds: 3}},
		{"WithProtocol(sealed)", buyerCfg(WithProtocol("sealed")).Protocol == trading.SealedBid{}},
		{"WithMaxIterations", buyerCfg(WithMaxIterations(2)).MaxIterations == 2},
		{"WithBuyerWorkers", buyerCfg(WithBuyerWorkers(1)).Workers == 1},
		{"WithFetchBatch", buyerCfg(WithFetchBatch(7)).FetchBatchRows == 7},
		{"WithTrace", buyerCfg(WithTrace()).Tracer != nil && buyerCfg(WithTrace()).Sampling == nil},
		{"WithTraceSampling", buyerCfg(WithTraceSampling(sampling)).Tracer != nil &&
			reflect.DeepEqual(buyerCfg(WithTraceSampling(sampling)).Sampling,
				&obs.Sampling{Mode: obs.SampleRatio, Ratio: 0.25, Seed: 7, TailSlower: time.Second})},

		{"WithLedger", fed(WithLedger(4)).Ledger() != nil},
		{"WithFlightRecorder", fed(WithFlightRecorder(4)).FlightRecorder() != nil},
		{"WithSlowQuerySLO", fed(WithSlowQuerySLO(40*time.Millisecond)).FlightRecorder().Triggers().SlowMS == 40},
		{"WithMetricsHistory", fed(WithMetricsHistory(time.Hour, 3)).MetricsHistory() != nil},
	} {
		if !tc.holds {
			t.Errorf("%s does not reach the configuration it documents", tc.option)
		}
	}
	// Without the option, the sinks it turns on stay off.
	if f := NewFederation(NewSchema()); f.Ledger() != nil || f.FlightRecorder() != nil || f.MetricsHistory() != nil {
		t.Error("a federation made without options has a ledger, recorder or history attached")
	}
}
