package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

// rateCard is a short-period card for hand-built rate sessions: every
// listing sits in its final schedule month, so its ask is flat and the
// book clamps each fill to the shrinking prorated cap.
func rateCard() pricing.InstanceType {
	return pricing.InstanceType{
		Name:           "trade.large",
		OnDemandHourly: 1.0,
		Upfront:        100,
		ReservedHourly: 0.25,
		PeriodHours:    400,
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestMarketSession runs the rate-driven session on the shared market
// loop: hand-built sell events pin instant sales, buyer surplus,
// expiry and delayed sales at a = 0.8, the 12% fee and seed 7; the
// cohort case runs MarketSession end to end.
func TestMarketSession(t *testing.T) {
	it := rateCard()
	ev := func(hour int, seller string, remaining int) SellEvent {
		return SellEvent{Hour: hour, Seller: seller, Instance: it, RemainingHours: remaining}
	}
	cases := []struct {
		name   string
		events []SellEvent
		rate   float64
		check  func(t *testing.T, s SessionStats)
	}{{
		// A buyer every hour: the listing sells in its listing hour at
		// the initial ask, so realized == assumed income.
		name:   "instant sale",
		events: []SellEvent{ev(0, "alice", 100)},
		rate:   1,
		check: func(t *testing.T, s SessionStats) {
			if s.Listed != 1 || s.Sold != 1 || s.Expired != 0 {
				t.Fatalf("stats = %+v", s)
			}
			ask := 0.8 * 100 * 100.0 / 400.0 // a * R * rem/T = 20
			if !almostEqual(s.SellerIncome, ask*0.88, 1e-9) {
				t.Errorf("SellerIncome = %v, want %v", s.SellerIncome, ask*0.88)
			}
			if !almostEqual(s.RealizedFraction, 1, 1e-9) {
				t.Errorf("RealizedFraction = %v, want 1", s.RealizedFraction)
			}
			if s.MeanHoursToSale != 0 {
				t.Errorf("MeanHoursToSale = %v, want 0", s.MeanHoursToSale)
			}
		},
	}, {
		// Listed at 80% of the cap and sold instantly: the buyer
		// captures exactly 20% of the prorated cap.
		name:   "buyer surplus",
		events: []SellEvent{ev(0, "a", 100)},
		rate:   1,
		check: func(t *testing.T, s SessionStats) {
			if cap := 100 * 100.0 / 400.0; !almostEqual(s.BuyerSurplus, 0.2*cap, 1e-9) {
				t.Errorf("BuyerSurplus = %v, want %v", s.BuyerSurplus, 0.2*cap)
			}
		},
	}, {
		name:   "no buyers",
		events: []SellEvent{ev(0, "a", 50), ev(5, "b", 30)},
		rate:   0,
		check: func(t *testing.T, s SessionStats) {
			if s.Sold != 0 || s.Expired != 2 || s.OpenAtEnd != 0 {
				t.Errorf("sold %d, expired %d, open %d; want 0, 2, 0", s.Sold, s.Expired, s.OpenAtEnd)
			}
			if s.RealizedFraction != 0 {
				t.Errorf("RealizedFraction = %v, want 0", s.RealizedFraction)
			}
		},
	}, {
		// A thin market: the listing waits long enough that the
		// shrinking prorated cap undercuts its flat scheduled ask, so
		// the realized fraction drops below 1.
		name:   "delayed sale",
		events: []SellEvent{ev(0, "a", 20)},
		rate:   0.1,
		check: func(t *testing.T, s SessionStats) {
			if s.Sold != 1 {
				t.Fatalf("Sold = %d (stats %+v)", s.Sold, s)
			}
			if s.MeanHoursToSale <= 0 {
				t.Errorf("MeanHoursToSale = %v, want positive wait", s.MeanHoursToSale)
			}
			if s.RealizedFraction >= 1 || s.RealizedFraction <= 0.5 {
				t.Errorf("RealizedFraction = %v, want in (0.5, 1) for a short delay", s.RealizedFraction)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := rateSession(context.Background(), tc.events, 0.8, marketplace.AmazonFee, tc.rate, 7)
			if err != nil {
				t.Fatal(err)
			}
			if s.Sold+s.Expired+s.OpenAtEnd != s.Listed {
				t.Errorf("sold %d + expired %d + open %d != listed %d", s.Sold, s.Expired, s.OpenAtEnd, s.Listed)
			}
			tc.check(t, s)
		})
	}

	t.Run("deterministic", func(t *testing.T) {
		events := []SellEvent{ev(0, "a", 120), ev(3, "b", 80), ev(9, "c", 300)}
		s1, err := rateSession(context.Background(), events, 0.8, marketplace.AmazonFee, 0.5, 7)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := rateSession(context.Background(), events, 0.8, marketplace.AmazonFee, 0.5, 7)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Errorf("same session differs: %+v vs %+v", s1, s2)
		}
	})

	// Every listing ends exactly one way, and realized income never
	// exceeds the instant-sale assumption: asks only decline while
	// listings wait.
	t.Run("conservation", func(t *testing.T) {
		f := func(raw []uint8, rateSel uint8) bool {
			if len(raw) == 0 {
				return true
			}
			if len(raw) > 30 {
				raw = raw[:30]
			}
			events := make([]SellEvent, 0, len(raw))
			for _, b := range raw {
				events = append(events, ev(int(b)%50, "s", 10+int(b)%300))
			}
			s, err := rateSession(context.Background(), events, 0.8, marketplace.AmazonFee, float64(rateSel%30)/10, 7)
			if err != nil {
				return false
			}
			return s.Listed == len(events) &&
				s.Sold+s.Expired+s.OpenAtEnd == s.Listed &&
				s.SellerIncome >= 0 && s.FeeRevenue >= 0 &&
				s.SellerIncome <= s.AssumedIncome+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})

	t.Run("invalid events", func(t *testing.T) {
		for _, events := range [][]SellEvent{
			nil,
			{ev(-1, "s", 10)},
			{ev(0, "s", 0)},
			{ev(0, "s", it.PeriodHours)},
		} {
			if _, err := rateSession(context.Background(), events, 0.8, marketplace.AmazonFee, 1, 7); err == nil {
				t.Errorf("events %+v accepted", events)
			}
		}
	})

	t.Run("cohort", func(t *testing.T) {
		points, err := MarketSession(context.Background(), smallConfig(), []float64{0.1, 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 2 {
			t.Fatalf("points = %d", len(points))
		}
		for _, pt := range points {
			s := pt.Stats
			if s.Sold+s.Expired+s.OpenAtEnd != s.Listed {
				t.Errorf("rate %v: sold %d + expired %d + open %d != listed %d",
					pt.BuyerRate, s.Sold, s.Expired, s.OpenAtEnd, s.Listed)
			}
		}
		thin, thick := points[0].Stats, points[1].Stats
		if thin.Listed == 0 || thin.Listed != thick.Listed {
			t.Fatalf("listings inconsistent: %d vs %d", thin.Listed, thick.Listed)
		}
		// More buyers clear more listings and realize more income.
		if thick.Sold < thin.Sold {
			t.Errorf("thick market sold %d < thin market %d", thick.Sold, thin.Sold)
		}
		if thick.RealizedFraction < thin.RealizedFraction {
			t.Errorf("thick realized %v < thin %v", thick.RealizedFraction, thin.RealizedFraction)
		}
		// A flooded market realizes nearly all of Eq. (1)'s assumed income.
		if thick.RealizedFraction < 0.9 {
			t.Errorf("flooded market realized only %v", thick.RealizedFraction)
		}
		out := RenderMarket(points)
		if !strings.Contains(out, "realized income") || !strings.Contains(out, "buyers/hour") {
			t.Errorf("render:\n%s", out)
		}
	})
}

func TestMarketSessionRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.PerGroup = 0
	if _, err := MarketSession(context.Background(), cfg, []float64{1}); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := MarketSession(context.Background(), smallConfig(), []float64{1, -0.5}); err == nil {
		t.Error("negative buyer rate accepted")
	}
}

func TestMarketSessionDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := MarketSession(context.Background(), cfg, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarketSession(context.Background(), cfg, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("sessions differ: %+v vs %+v", a[0], b[0])
	}
}

// TestMarketSessionObsCounters checks the rate session feeds the obs
// market section through the shared loop: at every rate, the counters
// equal the session's own statistics.
func TestMarketSessionObsCounters(t *testing.T) {
	plan, err := NewCohortPlan(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.05, 0.2, 1, 5} {
		m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
		points, err := plan.MarketSession(obs.WithMetrics(context.Background(), m), []float64{rate})
		if err != nil {
			t.Fatal(err)
		}
		s := points[0].Stats
		mk := m.Snapshot().Market
		if mk == nil {
			t.Fatalf("rate %v: snapshot has no market section", rate)
		}
		if mk.Listings != int64(s.Listed) || mk.Trades != int64(s.Sold) || mk.Expiries != int64(s.Expired) {
			t.Errorf("rate %v: counters (listings %d, trades %d, expiries %d) != stats (%d, %d, %d)",
				rate, mk.Listings, mk.Trades, mk.Expiries, s.Listed, s.Sold, s.Expired)
		}
		if mk.BuyOrders != mk.Trades+mk.FreshBuys {
			t.Errorf("rate %v: buy orders %d != trades %d + unfilled %d", rate, mk.BuyOrders, mk.Trades, mk.FreshBuys)
		}
		if want := s.MeanHoursToSale * float64(s.Sold); !almostEqual(float64(mk.HoursToSale), want, 1e-6) {
			t.Errorf("rate %v: hours-to-sale total %d, want %v", rate, mk.HoursToSale, want)
		}
	}
}
