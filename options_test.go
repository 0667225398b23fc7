package qtrade

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/node"
	"qtrade/internal/trading"
)

// TestEveryOptionReachesItsConfigField applies each With* option to the
// configuration it edits and checks the field its doc comment names — an
// option no test, example or command calls must still do what it says.
// TestRootOptionsAreTheTable holds every exported With* to one row here.
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
		t.Cleanup(func() { f.Watchdog().Stop() })
		return f
	}
	for _, tc := range []struct {
		option string
		holds  bool
	}{
		{"WithStrategy(Competitive)", reflect.TypeOf(nodeCfg(WithStrategy(Competitive)).Strategy) == reflect.TypeOf(trading.NewCompetitive())},
		{"WithStrategy(Cooperative)", nodeCfg(WithStrategy(Cooperative)).Strategy == trading.Cooperative{}},
		{"WithoutViewOffers", nodeCfg(WithoutViewOffers()).DisableViews},
		{"WithLoadAwarePricing", nodeCfg(WithLoadAwarePricing()).LoadAwarePricing},

		{"WithPlanGenerator", buyerCfg(WithPlanGenerator("idp")).Mode == core.PlanGenMode("idp")},
		{"WithProtocol(iterative)", buyerCfg(WithProtocol("iterative")).Protocol == trading.IterativeBid{MaxRounds: 3}},
		{"WithProtocol(bargain)", buyerCfg(WithProtocol("bargain")).Protocol == trading.Bargain{MaxRounds: 3}},
		{"WithProtocol(sealed)", buyerCfg(WithProtocol("sealed")).Protocol == trading.SealedBid{}},
		{"WithMaxIterations", buyerCfg(WithMaxIterations(2)).MaxIterations == 2},
		{"WithTrace", buyerCfg(WithTrace()).Tracer != nil},

		{"WithLedger", fed(WithLedger(4)).Ledger() != nil},
		{"WithFlightRecorder", fed(WithFlightRecorder(4)).FlightRecorder() != nil},
		{"WithMetricsHistory", fed(WithMetricsHistory(time.Hour)).MetricsHistory() != nil},
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

// TestRootOptionsAreTheTable reads the package source: every exported With*
// function the root declares has a row in TestEveryOptionReachesItsConfigField,
// and every row names one of them.
func TestRootOptionsAreTheTable(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared, rows := map[string]bool{}, map[string]bool{}
	for name, file := range pkgs["qtrade"].Files {
		test := strings.HasSuffix(name, "_test.go")
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if !test && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
				declared[fn.Name.Name] = true
			}
			if test && fn.Name.Name == "TestEveryOptionReachesItsConfigField" {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					row, ok := n.(*ast.CompositeLit)
					if !ok || len(row.Elts) != 2 {
						return true
					}
					if lit, ok := row.Elts[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						s, _ := strconv.Unquote(lit.Value)
						option, _, _ := strings.Cut(s, "(")
						rows[option] = true
					}
					return true
				})
			}
		}
	}
	if len(declared) == 0 || len(rows) == 0 {
		t.Fatalf("found %d With* functions and %d table rows", len(declared), len(rows))
	}
	for name := range declared {
		if !rows[name] {
			t.Errorf("%s has no row in TestEveryOptionReachesItsConfigField", name)
		}
	}
	for name := range rows {
		if !declared[name] {
			t.Errorf("a row of TestEveryOptionReachesItsConfigField names %s, which the package does not declare", name)
		}
	}
}
