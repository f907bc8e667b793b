package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rimarket/internal/core"
	"rimarket/internal/marketplace"
	"rimarket/internal/simulate"
)

// MarketPoint is one buyer-arrival-rate setting of the market-dynamics
// experiment.
type MarketPoint struct {
	// BuyerRate is the mean buyer arrivals per hour.
	BuyerRate float64
	// Stats is the session outcome.
	Stats SessionStats
}

// SessionStats summarizes one rate-driven market session.
type SessionStats struct {
	// Listed, Sold and Expired count listings through their outcomes;
	// OpenAtEnd is what remained on the book at the horizon.
	Listed, Sold, Expired, OpenAtEnd int
	// SellerIncome is the total after-fee income sellers realized.
	SellerIncome float64
	// AssumedIncome is what Eq. (1) would have booked: an instant sale
	// at the listing ask (after fee) for every sell event.
	AssumedIncome float64
	// FeeRevenue is the marketplace's total cut.
	FeeRevenue float64
	// BuyerSurplus is the total discount buyers captured: the prorated
	// fair value of each purchased remaining period minus the price
	// paid. It is why the marketplace clears — buyers get reserved-rate
	// hours below the prorated upfront.
	BuyerSurplus float64
	// MeanHoursToSale averages the wait from listing to sale over sold
	// listings.
	MeanHoursToSale float64
	// RealizedFraction is SellerIncome / AssumedIncome (1 when every
	// listing sells instantly at its initial ask; lower when listings
	// wait — the book reprices them monthly and clamps each fill to the
	// prorated cap — or expire unsold).
	RealizedFraction float64
}

// sellEvents collects every sell event the plan's runs produce under
// the given selling policy — fanned out over the plan's worker pool,
// with per-user event slices concatenated in cohort order so the
// stream is deterministic at any parallelism.
func (p *CohortPlan) sellEvents(ctx context.Context, policy simulate.SellingPolicy) ([]SellEvent, error) {
	perUser, err := p.sellEventsPerUser(ctx, policy)
	if err != nil {
		return nil, err
	}
	var events []SellEvent
	for _, evs := range perUser {
		events = append(events, evs...)
	}
	return events, nil
}

// sellEventsPerUser is sellEvents before concatenation: element i holds
// user i's sell events in decision order.
func (p *CohortPlan) sellEventsPerUser(ctx context.Context, policy simulate.SellingPolicy) ([][]SellEvent, error) {
	cfg := p.cfg
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount}

	perUser := make([][]SellEvent, p.Len())
	err := p.ForEachUser(ctx, func(i int, u PlannedUser) error {
		run, err := simulate.Run(u.Trace.Demand, u.NewRes, engCfg, policy)
		if err != nil {
			return fmt.Errorf("experiments: user %s: %w", u.Trace.User, err)
		}
		for _, inst := range run.Instances {
			if inst.SoldAt < 0 {
				continue
			}
			perUser[i] = append(perUser[i], SellEvent{
				Hour:           inst.SoldAt,
				Seller:         u.Trace.User,
				Instance:       cfg.Instance,
				RemainingHours: inst.Start + cfg.Instance.PeriodHours - inst.SoldAt,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return perUser, nil
}

// MarketSession collects every sell event the plan's A_{3T/4} runs
// produce and replays them through live order-book sessions at the
// given buyer arrival rates.
func (p *CohortPlan) MarketSession(ctx context.Context, buyerRates []float64) ([]MarketPoint, error) {
	for _, rate := range buyerRates {
		if rate < 0 {
			return nil, fmt.Errorf("experiments: buyer rate %v negative", rate)
		}
	}
	cfg := p.cfg
	policy, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	events, err := p.sellEvents(ctx, policy)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("experiments: the cohort produced no sell events")
	}

	points := make([]MarketPoint, 0, len(buyerRates))
	for _, rate := range buyerRates {
		stats, err := rateSession(ctx, events, cfg.SellingDiscount, marketplace.AmazonFee, rate, cfg.Seed)
		if err != nil {
			return nil, err
		}
		points = append(points, MarketPoint{BuyerRate: rate, Stats: stats})
	}
	return points, nil
}

// rateSession replays sell events through the market loop with
// exogenous buyers arriving at rate per hour. The per-hour count is
// deterministic in the seed: rate r yields floor(r) arrivals plus one
// more when the hour's hash draw is below frac(r). Each arrival picks
// one of the types listed so far uniformly by its own draw and buys
// the cheapest listing, going unfilled when that type's book is empty.
// The horizon runs until the longest-lived listing has expired.
func rateSession(ctx context.Context, events []SellEvent, discount, fee, rate float64, seed int64) (SessionStats, error) {
	if len(events) == 0 {
		return SessionStats{}, fmt.Errorf("experiments: no sell events")
	}
	sorted := append([]SellEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Hour < sorted[j].Hour })
	horizon := 0
	var stats SessionStats
	for i, ev := range sorted {
		if ev.Hour < 0 || ev.RemainingHours <= 0 {
			return SessionStats{}, fmt.Errorf("experiments: sell event %d: invalid hour %d / remaining %d", i, ev.Hour, ev.RemainingHours)
		}
		// +1 so the step that expires the longest-lived listing runs.
		if end := ev.Hour + ev.RemainingHours + 1; end > horizon {
			horizon = end
		}
		stats.AssumedIncome += discount * marketplace.ProratedCap(ev.Instance, ev.RemainingHours) * (1 - fee)
	}

	loop, err := newMarketLoop(ctx, fee, discount)
	if err != nil {
		return SessionStats{}, err
	}
	whole := int(rate)
	frac := rate - float64(whole)
	buyers := func(hour int) error {
		arrivals := whole
		if frac > 0 && core.UniformHash(uint64(seed), uint64(hour), 0) < frac {
			arrivals++
		}
		for b := 0; b < arrivals && len(loop.names) > 0; b++ {
			pick := int(core.UniformHash(uint64(seed), uint64(hour), uint64(b+1))*float64(len(loop.names))) % len(loop.names)
			if err := loop.buy("buyer", pick, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop.run(sorted, horizon, buyers); err != nil {
		return SessionStats{}, err
	}

	for _, t := range loop.tallies {
		stats.Listed += t.listed
		stats.Expired += t.expired
	}
	stats.OpenAtEnd = loop.book.OpenCount()
	wait := 0
	for _, tr := range loop.book.Trades() {
		stats.Sold++
		stats.SellerIncome += tr.SellerProceeds
		stats.FeeRevenue += tr.Fee
		stats.BuyerSurplus += marketplace.ProratedCap(tr.Instance, tr.RemainingHours) - tr.PricePaid
		wait += tr.Hour - tr.ListedAt
	}
	if stats.Sold > 0 {
		stats.MeanHoursToSale = float64(wait) / float64(stats.Sold)
	}
	if stats.AssumedIncome > 0 {
		stats.RealizedFraction = stats.SellerIncome / stats.AssumedIncome
	}
	return stats, nil
}

// MarketSession quantifies the paper's instant-sale assumption: Eq. (1)
// books income the moment the algorithm decides, while a real
// marketplace needs a buyer.
func MarketSession(ctx context.Context, cfg Config, buyerRates []float64) ([]MarketPoint, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.MarketSession(ctx, buyerRates)
}

// RenderMarket renders the market-dynamics experiment.
func RenderMarket(points []MarketPoint) string {
	var b strings.Builder
	b.WriteString("Market dynamics — does Eq. (1)'s instant-sale income materialize?\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %14s %16s\n",
		"buyers/hour", "listed", "sold", "expired", "mean wait (h)", "realized income")
	for _, pt := range points {
		s := pt.Stats
		fmt.Fprintf(&b, "%-12.2f %8d %8d %8d %14.1f %15.1f%%\n",
			pt.BuyerRate, s.Listed, s.Sold, s.Expired, s.MeanHoursToSale, s.RealizedFraction*100)
	}
	return b.String()
}
