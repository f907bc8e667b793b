package rimarket_test

import (
	"strings"
	"testing"

	"rimarket"
)

// TestQuickstartFlow exercises the doc-comment quick start end to end
// through the public facade only.
func TestQuickstartFlow(t *testing.T) {
	it := rimarket.TestScaleConfig().Instance
	policy, err := rimarket.NewA3T4(it, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !policy.ShouldSell(rimarket.Checkpoint{Worked: 0}) {
		t.Error("idle instance not sold")
	}

	demand := make([]int, it.PeriodHours)
	for i := 0; i < it.PeriodHours/10; i++ {
		demand[i] = 2
	}
	plan, err := rimarket.PlanReservations(demand, it.PeriodHours, rimarket.AllReserved{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rimarket.Run(demand, plan, rimarket.SimConfig{
		Instance:        it,
		SellingDiscount: 0.8,
	}, policy)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := rimarket.Run(demand, plan, rimarket.SimConfig{
		Instance:        it,
		SellingDiscount: 0.8,
	}, rimarket.KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	// Demand stops at 10% of the period (below break-even): selling must
	// beat keeping.
	if res.Cost.Total() >= keep.Cost.Total() {
		t.Errorf("selling cost %v >= keeping cost %v", res.Cost.Total(), keep.Cost.Total())
	}
}

func TestFacadeCatalogAndRatios(t *testing.T) {
	cat := rimarket.StandardCatalog()
	if cat.Len() < 30 {
		t.Fatalf("catalog = %d types", cat.Len())
	}
	d2 := rimarket.D2XLarge()
	b, err := rimarket.RatioA3T4(d2.Alpha(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Ratio <= 1 || b.Ratio >= 2 {
		t.Errorf("headline bound = %v", b.Ratio)
	}
}

func TestFacadeMarketplace(t *testing.T) {
	m, err := rimarket.NewMarket(rimarket.AmazonFee)
	if err != nil {
		t.Fatal(err)
	}
	it := rimarket.D2XLarge()
	if _, err := m.ListDeclining("seller", it, it.PeriodHours/2, 0.8); err != nil {
		t.Fatal(err)
	}
	sales, err := m.Buy("buyer", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sales) != 1 || sales[0].SellerProceeds <= 0 {
		t.Errorf("sales = %+v", sales)
	}
}

func TestFacadeCohortPipeline(t *testing.T) {
	cfg := rimarket.TestScaleConfig()
	cfg.PerGroup = 4
	res, err := rimarket.RunCohort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := rimarket.RenderTable3(rimarket.Table3(res))
	if !strings.Contains(table, "Table III") {
		t.Errorf("table:\n%s", table)
	}
}

func TestFacadeWorkloadAndBounds(t *testing.T) {
	traces, err := rimarket.NewCohort(rimarket.CohortConfig{PerGroup: 2, Hours: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 6 {
		t.Fatalf("traces = %d", len(traces))
	}
	for _, tr := range traces {
		if g := rimarket.Classify(tr); g < rimarket.GroupStable || g > rimarket.GroupVolatile {
			t.Errorf("group = %v", g)
		}
	}

	it := rimarket.TestScaleConfig().Instance
	policy, err := rimarket.NewAT2(it, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	schedule := make([]bool, it.PeriodHours)
	measured, bound, err := rimarket.VerifyBound(schedule, policy, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if measured > bound.Ratio {
		t.Errorf("measured %v > bound %v", measured, bound.Ratio)
	}
}

func TestFacadePortfolio(t *testing.T) {
	it := rimarket.TestScaleConfig().Instance
	demand := make([]int, it.PeriodHours)
	demand[0] = 1
	res, err := rimarket.EvaluatePortfolio([]rimarket.PortfolioService{
		{Name: "svc", Instance: it, Demand: demand},
	}, rimarket.PortfolioConfig{
		SellingDiscount: 0.8,
		Policy: func(card rimarket.InstanceType) (rimarket.SellingPolicy, error) {
			return rimarket.NewA3T4(card, 0.8)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingsFraction() <= 0 {
		t.Errorf("savings = %v, want positive (idle instance sold)", res.SavingsFraction())
	}
	m, err := rimarket.NewMarket(0.12)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := rimarket.ListPortfolioOnMarket(m, res, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if listed != 1 {
		t.Errorf("listed = %d, want 1", listed)
	}
}

func TestFacadeFutureWorkPolicies(t *testing.T) {
	it := rimarket.TestScaleConfig().Instance
	if _, err := rimarket.NewRandomized(it, 0.8, rimarket.DiscreteFractions{Fractions: []float64{0.5}}, 1); err != nil {
		t.Fatal(err)
	}
	multi, err := rimarket.NewPaperMultiThreshold(it, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(multi.CheckpointAges(it.PeriodHours)); got != 3 {
		t.Errorf("checkpoints = %d, want 3", got)
	}
	if _, err := rimarket.NewMultiThreshold(it, 0.8, []float64{0.3, 0.6}); err != nil {
		t.Fatal(err)
	}
	uni := rimarket.UniformFractions{Lo: 0.2, Hi: 0.8}
	if got := uni.Sample(0.5); got != 0.5 {
		t.Errorf("uniform sample = %v", got)
	}
}

func TestFacadeTraceLoading(t *testing.T) {
	if _, _, err := rimarket.LoadEC2LogDir("/nonexistent"); err == nil {
		t.Error("missing dir accepted")
	}
	cfg := rimarket.TestScaleConfig()
	traces := []rimarket.Trace{{User: "u", Demand: []int{1, 2, 3}}}
	res, err := rimarket.RunTraces(cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Users) != 1 {
		t.Errorf("users = %d", len(res.Users))
	}
}
