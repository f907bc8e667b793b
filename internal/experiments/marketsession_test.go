package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

// marketCards returns the session's traded cards at the test scale:
// the paper's d2.xlarge plus a cheap general-purpose type, both with
// the year scaled down the way TestScaleConfig scales its card.
func marketCards(t *testing.T) []pricing.InstanceType {
	t.Helper()
	scale := 6.0
	out := make([]pricing.InstanceType, 0, 2)
	for _, name := range []string{"d2.xlarge", "m4.large"} {
		it, err := pricing.StandardLinuxUSEast().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		it.PeriodHours = int(float64(it.PeriodHours) / scale)
		it.Upfront /= scale
		out = append(out, it)
	}
	return out
}

// marketScenario is the suite's shared scenario at the given execution
// settings; results must not depend on any of them.
func marketScenario(t *testing.T, parallelism int) MarketScenario {
	cfg := TestScaleConfig()
	cfg.PerGroup = 8
	cfg.MarketFee = 0.12
	cfg.Parallelism = parallelism
	return MarketScenario{Base: cfg, Cards: marketCards(t)}
}

func TestMarketScenarioValidate(t *testing.T) {
	sc := marketScenario(t, 0)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (MarketScenario{Base: sc.Base}).Validate(); err == nil {
		t.Error("no cards accepted")
	}
	dup := MarketScenario{Base: sc.Base, Cards: []pricing.InstanceType{sc.Cards[0], sc.Cards[0]}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate card accepted")
	}
	bad := sc
	bad.Base.PerGroup = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid base config accepted")
	}
}

// TestMarketScenarioEmergentStats pins the tentpole's acceptance
// property: the session produces a per-type sale-probability and
// time-to-sale table from matched trades, with every derived quantity
// consistent with the raw counts and money conserved bit-exactly.
func TestMarketScenarioEmergentStats(t *testing.T) {
	sc := marketScenario(t, 0)
	res, err := RunMarketScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(sc.Cards) {
		t.Fatalf("%d outcomes for %d cards", len(res.Outcomes), len(sc.Cards))
	}
	if res.Horizon != sc.Base.Hours {
		t.Errorf("horizon %d, want %d", res.Horizon, sc.Base.Hours)
	}
	var listed, sold, used, fresh int
	var paid, split float64
	for i, o := range res.Outcomes {
		if o.Type != sc.Cards[i].Name {
			t.Errorf("outcome %d is %q, want card order %q", i, o.Type, sc.Cards[i].Name)
		}
		if o.Listed != o.Sold+o.Expired+o.OpenAtEnd {
			t.Errorf("%s: listed %d != sold %d + expired %d + open %d", o.Type, o.Listed, o.Sold, o.Expired, o.OpenAtEnd)
		}
		if o.SaleProbability < 0 || o.SaleProbability > 1 {
			t.Errorf("%s: sale probability %v outside [0,1]", o.Type, o.SaleProbability)
		}
		if o.Sold != o.UsedFills {
			t.Errorf("%s: sold %d != used fills %d (single-type book: every fill is a sale)", o.Type, o.Sold, o.UsedFills)
		}
		if o.BuyerDemand != o.UsedFills+o.FreshBuys {
			t.Errorf("%s: demand %d != used %d + fresh %d", o.Type, o.BuyerDemand, o.UsedFills, o.FreshBuys)
		}
		// Bit-exact conservation is per trade (asserted inside the
		// session); the independently accumulated sums agree to float
		// summation error.
		if diff := o.BuyerPaid - (o.SellerProceeds + o.Fees); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: paid %v != proceeds %v + fees %v", o.Type, o.BuyerPaid, o.SellerProceeds, o.Fees)
		}
		if o.Sold > 0 && o.MeanHoursToSale < 0 {
			t.Errorf("%s: negative mean wait %v", o.Type, o.MeanHoursToSale)
		}
		listed += o.Listed
		sold += o.Sold
		used += o.UsedFills
		fresh += o.FreshBuys
		paid += o.BuyerPaid
		split += o.SellerProceeds + o.Fees
	}
	// The seeded cohort must actually trade: an empty table would make
	// the emergent-alpha claim vacuous.
	if listed == 0 || sold == 0 {
		t.Fatalf("degenerate session: %d listed, %d sold", listed, sold)
	}
	// Both buyer branches run: reservations take a used listing when it
	// beats a fresh reservation per remaining hour, and fall back to
	// buying fresh when the book is empty or too dear.
	if used == 0 || fresh == 0 {
		t.Errorf("buyer side never took one branch: %d used fills, %d fresh buys", used, fresh)
	}
	if diff := paid - res.BuyerPaid; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("session paid total %v != per-type sum %v", res.BuyerPaid, paid)
	}
	if diff := split - (res.SellerProceeds + res.Fees); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("session proceeds+fees %v != per-type sum %v", res.SellerProceeds+res.Fees, split)
	}
	out := RenderMarketOutcomes(res)
	for _, card := range sc.Cards {
		if !strings.Contains(out, card.Name) {
			t.Errorf("rendered table missing %s:\n%s", card.Name, out)
		}
	}

	// The buyer rule itself, on a hand-built book: a reservation takes
	// a used listing cheaper than fresh per remaining hour, and falls
	// back to fresh when the best listing is dearer.
	card := sc.Cards[0]
	loop, err := newMarketLoop(context.Background(), sc.Base.MarketFee, sc.Base.SellingDiscount)
	if err != nil {
		t.Fatal(err)
	}
	ti := loop.typeIndex(card.Name)
	take := usedBeatsFresh(card)
	rem := card.PeriodHours / 2
	if _, err := loop.book.ListDeclining("cheap", card, rem, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := loop.buy("buyer", ti, take); err != nil {
		t.Fatal(err)
	}
	// Listed at the full cap, one hour later the flat ask exceeds
	// fresh per remaining hour.
	dear := marketplace.PriceSchedule{{Term: marketplace.MonthsRemaining(rem), Price: marketplace.ProratedCap(card, rem)}}
	if _, err := loop.book.List("dear", card, rem, dear); err != nil {
		t.Fatal(err)
	}
	loop.book.Step()
	if err := loop.buy("buyer", ti, take); err != nil {
		t.Fatal(err)
	}
	if tl := loop.tallies[ti]; tl.sold != 1 || tl.fresh != 1 || tl.demand != 2 || loop.book.OpenCount() != 1 {
		t.Errorf("buyer rule: used %d, fresh %d of %d demand, %d open; want 1, 1 of 2, 1 open",
			tl.sold, tl.fresh, tl.demand, loop.book.OpenCount())
	}
}

// TestMarketScenarioObsCounters checks the session feeds the obs
// market section, and that the counters agree with the outcomes.
func TestMarketScenarioObsCounters(t *testing.T) {
	sc := marketScenario(t, 0)
	m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
	res, err := RunMarketScenario(obs.WithMetrics(context.Background(), m), sc)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Market == nil {
		t.Fatal("snapshot has no market section after a market session")
	}
	var listed, sold, expired, demand, fresh int64
	for _, o := range res.Outcomes {
		listed += int64(o.Listed)
		sold += int64(o.Sold)
		expired += int64(o.Expired)
		demand += int64(o.BuyerDemand)
		fresh += int64(o.FreshBuys)
	}
	mk := snap.Market
	if mk.Listings != listed || mk.Trades != sold || mk.Expiries != expired ||
		mk.BuyOrders != demand || mk.FreshBuys != fresh {
		t.Errorf("market counters (%d, %d, %d, %d, %d) != outcomes (%d, %d, %d, %d, %d)",
			mk.Listings, mk.Trades, mk.Expiries, mk.BuyOrders, mk.FreshBuys,
			listed, sold, expired, demand, fresh)
	}
	if sold > 0 && mk.HoursToSale < 0 {
		t.Errorf("hours-to-sale total %d negative", mk.HoursToSale)
	}
}

// TestMarketScenarioDifferential is the determinism gate: the rendered
// session must be byte-identical at every parallelism and with or
// without metrics attached.
func TestMarketScenarioDifferential(t *testing.T) {
	want := ""
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		for _, observed := range []bool{false, true} {
			ctx := context.Background()
			if observed {
				m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
				ctx = obs.WithMetrics(ctx, m)
			}
			res, err := RunMarketScenario(ctx, marketScenario(t, par))
			if err != nil {
				t.Fatalf("parallelism=%d observed=%v: %v", par, observed, err)
			}
			got := RenderMarketOutcomes(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("parallelism=%d observed=%v diverged:\n--- got ---\n%s--- want ---\n%s",
					par, observed, got, want)
			}
		}
	}
}

// TestMarketScenarioSpillInterop runs a spilled-and-resumed cohort
// grid and the market session over the same configuration: the spill
// store must restore the grid cells and the session must render
// identically whether or not a grid spill ran beside it.
func TestMarketScenarioSpillInterop(t *testing.T) {
	sc := marketScenario(t, 2)
	plain, err := RunMarketScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := sc.Base
	cfg.Instance = sc.Cards[0]
	cfg.SpillDir = dir

	// First pass computes and spills the cohort grid.
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Cohort(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Second pass resumes from the spill store and also runs the market
	// session on a scenario sharing the spill configuration.
	cfg.Resume = true
	m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
	ctx := obs.WithMetrics(context.Background(), m)
	plan2, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := plan2.Cohort(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().CellsResumed; got == 0 {
		t.Error("resume pass restored no cells from the spill store")
	}
	for i := range first.Users {
		for name, cost := range first.Users[i].Costs {
			if second.Users[i].Costs[name] != cost {
				t.Fatalf("user %d policy %s: resumed cost %v != computed %v",
					i, name, second.Users[i].Costs[name], cost)
			}
		}
	}

	spilled := sc
	spilled.Base = cfg
	res, err := RunMarketScenario(ctx, spilled)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RenderMarketOutcomes(res), RenderMarketOutcomes(plain); got != want {
		t.Errorf("session beside a spilled grid diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
