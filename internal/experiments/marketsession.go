package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// MarketScenario parameterizes a two-sided market session: one shared
// cohort configuration and the set of price cards traded on the book.
// The cohort is synthesized once and planned per card (reservation
// behaviors depend on the card). Each user's sell decisions under one
// of the paper's three online algorithms — assigned round-robin across
// the cohort, so listings arrive from T/4 onward instead of all at
// 3T/4 — become the seller side, while the planned reservation
// schedules become the buyer side: every new reservation a behavior
// would buy fresh first shops the order book for a cheaper-per-hour
// used listing. No exogenous sale probability or buyer arrival rate
// enters anywhere: fills emerge from the two sides meeting on the book.
type MarketScenario struct {
	// Base is the shared cohort configuration. Base.Instance is ignored
	// (Cards supplies the traded types); Base.MarketFee is the book's
	// fee; Base.SellingDiscount is the sellers' listing discount a.
	Base Config
	// Cards are the instance types traded in the session.
	Cards []pricing.InstanceType
}

// Validate reports whether the scenario is usable.
func (s MarketScenario) Validate() error {
	if len(s.Cards) == 0 {
		return fmt.Errorf("experiments: market scenario has no instance cards")
	}
	seen := make(map[string]bool, len(s.Cards))
	for _, card := range s.Cards {
		if err := card.Validate(); err != nil {
			return err
		}
		if seen[card.Name] {
			return fmt.Errorf("experiments: market scenario lists card %q twice", card.Name)
		}
		seen[card.Name] = true
	}
	cfg := s.Base
	cfg.Instance = s.Cards[0]
	return cfg.Validate()
}

// MarketOutcome is one instance type's measured market behavior over a
// session: how the seller side fared (sale probability, time to sale)
// and how the buyer side sourced its reservations (used fills versus
// fresh purchases). SaleProbability is the paper's alpha as a measured
// quantity — Sold/Listed from matched trades, with nothing assumed.
//
//rilint:frozen
type MarketOutcome struct {
	// Type names the instance type.
	Type string
	// Listed, Sold, Expired and OpenAtEnd count the type's listings
	// through their session outcomes.
	Listed, Sold, Expired, OpenAtEnd int
	// SaleProbability is Sold/Listed (0 when nothing listed); listings
	// still open at the horizon count as unsold.
	SaleProbability float64
	// MeanHoursToSale averages the listing-to-fill wait over sold
	// listings.
	MeanHoursToSale float64
	// BuyerDemand counts reservation units the cohort's behaviors
	// wanted; UsedFills of them came off the book, FreshBuys fell
	// through to a fresh reservation.
	BuyerDemand, UsedFills, FreshBuys int
	// FillRate is UsedFills/BuyerDemand (0 when no demand).
	FillRate float64
	// PeakDepth and MeanDepth describe the book's open-listing count
	// for the type over the session's hours.
	PeakDepth int
	MeanDepth float64
	// BuyerPaid, SellerProceeds and Fees are the type's money flows,
	// each summed in trade order. Conservation is per trade and
	// bit-exact — PricePaid == Fee + SellerProceeds for every fill, so
	// the trade-order sum of recompositions equals BuyerPaid exactly —
	// while BuyerPaid and SellerProceeds+Fees, being independently
	// accumulated sums, may differ in the last ulp.
	BuyerPaid, SellerProceeds, Fees float64
}

// MarketResult is a completed two-sided market session.
type MarketResult struct {
	// Horizon is the session length in hours.
	Horizon int
	// Outcomes holds one outcome per card, in scenario card order.
	Outcomes []MarketOutcome
	// BuyerPaid, SellerProceeds and Fees are the session-wide money
	// flows from the book's ledger, summed in trade order (see the
	// conservation note on MarketOutcome).
	BuyerPaid, SellerProceeds, Fees float64
}

// RunMarketScenario synthesizes the scenario's cohort once, then per
// card runs one sharded pass over its users: job i plans user i for the
// card, replays the plan once, records off, under
// SellingPolicies[i mod 3] — so the three online algorithms coexist in
// one market and listings arrive from T/4 onward instead of all at
// 3T/4 — and keeps only the user's sell events and the hours it
// reserves at. The plan dies with the job. All cards then trade through
// a single hour-stepped order book on the shared market loop: each hour
// ages the book (expiring and repricing listings), lists the hour's
// sell decisions, and routes the hour's planned reservations through
// the book before falling back to fresh purchases. The session loop is
// sequential and its inputs are kept in cohort order, so the result is
// byte-identical at any Parallelism.
//
// Reservation plans are fixed upstream, as in the paper's pipeline:
// buying used covers the same demand at the same reserved rate, so the
// session measures market clearing without feeding back into planning.
func RunMarketScenario(ctx context.Context, sc MarketScenario) (*MarketResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "market-session")
	defer sp.End()

	// The cohort depends only on PerGroup, Hours and Seed, which every
	// card shares. Validate has checked the first card's config, as
	// NewCohortPlan checks a config before it synthesizes; every later
	// card's is checked in turn below.
	traces, err := synthesize(sc.Base)
	if err != nil {
		return nil, err
	}
	var events []SellEvent
	schedules := make([]buyerSchedule, len(sc.Cards))
	for ci, card := range sc.Cards {
		cfg := sc.Base
		cfg.Instance = card
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		evs, sched, err := cardSides(ctx, cfg, traces)
		if err != nil {
			return nil, err
		}
		events = append(events, evs...)
		schedules[ci] = sched
	}
	// Within an hour, cards list in scenario order and each card's
	// sellers in cohort order: the stable sort keeps the
	// concatenation's order among equal hours.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Hour < events[j].Hour })

	loop, err := newMarketLoop(ctx, sc.Base.MarketFee, sc.Base.SellingDiscount)
	if err != nil {
		return nil, err
	}
	// Register the cards up front so tally i is card i, traded or not.
	takes := make([]func(marketplace.DepthSnapshot) bool, len(sc.Cards))
	for ci, card := range sc.Cards {
		loop.typeIndex(card.Name)
		takes[ci] = usedBeatsFresh(card)
	}
	// Buyers: each planned reservation shops the book first.
	buyers := func(hour int) error {
		for ci, sched := range schedules {
			for _, o := range sched.hour(hour) {
				for k := 0; k < o.count; k++ {
					if err := loop.buy(traces[o.user].User, ci, takes[ci]); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	horizon := sc.Base.Hours
	if err := loop.run(events, horizon, buyers); err != nil {
		return nil, err
	}
	return marketResult(loop, sc.Cards, horizon), nil
}

// buyOrder is one user's reservations at one hour.
type buyOrder struct {
	user, count int
}

// buyerSchedule is one card's buyer side: every planned reservation,
// bucketed by hour. Hour h's orders are orders[off[h]:off[h+1]], in
// cohort order, so the buyers walk only the hours' actual orders.
type buyerSchedule struct {
	off    []int
	orders []buyOrder
}

// hour returns the orders placed at hour h.
func (s buyerSchedule) hour(h int) []buyOrder {
	return s.orders[s.off[h]:s.off[h+1]]
}

// reservedAt is one hour a user reserves at, with the count.
type reservedAt struct {
	hour, count int
}

// newBuyerSchedule buckets the users' sparse reservation lists (user
// i's at perUser[i]) by hour over [0, horizon).
func newBuyerSchedule(horizon int, perUser [][]reservedAt) buyerSchedule {
	off := make([]int, horizon+1)
	for _, rs := range perUser {
		for _, r := range rs {
			off[r.hour+1]++
		}
	}
	for h := 1; h <= horizon; h++ {
		off[h] += off[h-1]
	}
	orders := make([]buyOrder, off[horizon])
	next := append([]int(nil), off[:horizon]...)
	for u, rs := range perUser {
		for _, r := range rs {
			orders[next[r.hour]] = buyOrder{user: u, count: r.count}
			next[r.hour]++
		}
	}
	return buyerSchedule{off: off, orders: orders}
}

// cardSides builds one card's two sides of the market in one sharded
// pass over the cohort: job i plans user i (planUser, the path
// NewCohortPlan takes), replays the plan on the worker's engine under
// SellingPolicies[i mod 3], and keeps the user's sell events and its
// sparse reservation list. Sell events come back concatenated in
// cohort order.
func cardSides(ctx context.Context, cfg Config, traces []workload.Trace) ([]SellEvent, buyerSchedule, error) {
	policies, err := onlinePolicies(cfg)
	if err != nil {
		return nil, buyerSchedule{}, err
	}
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount}

	sells := make([][]SellEvent, len(traces))
	reserved := make([][]reservedAt, len(traces))
	replayers := make([]sellReplayer, workerCount(cfg.Parallelism, len(traces)))
	_, _, err = runShardedDone(ctx, cfg.Parallelism, len(traces), func(w, i int) error {
		u, err := planUser(cfg, traces[i], i)
		if err != nil {
			return err
		}
		if sells[i], err = replayers[w].sellEvents(u, engCfg, policies[i%len(policies)]); err != nil {
			return err
		}
		for h, n := range u.NewRes {
			if n > 0 {
				reserved[i] = append(reserved[i], reservedAt{hour: h, count: n})
			}
		}
		return nil
	})
	if err != nil {
		return nil, buyerSchedule{}, err
	}
	var events []SellEvent
	for _, evs := range sells {
		events = append(events, evs...)
	}
	return events, newBuyerSchedule(cfg.Hours, reserved), nil
}

// marketResult reads a finished scenario session's outcomes off its
// loop, one per card in scenario order.
func marketResult(loop *marketLoop, cards []pricing.InstanceType, horizon int) *MarketResult {
	res := &MarketResult{Horizon: horizon, Outcomes: make([]MarketOutcome, len(cards))}
	for ci, card := range cards {
		t := &loop.tallies[ci]
		var saleProb, meanWait, fillRate float64
		if t.listed > 0 {
			saleProb = float64(t.sold) / float64(t.listed)
		}
		if t.sold > 0 {
			meanWait = float64(t.hoursToSale) / float64(t.sold)
		}
		if t.demand > 0 {
			fillRate = float64(t.sold) / float64(t.demand)
		}
		res.Outcomes[ci] = MarketOutcome{
			Type:            card.Name,
			Listed:          t.listed,
			Sold:            t.sold,
			Expired:         t.expired,
			OpenAtEnd:       loop.book.Depth(card.Name).Open,
			SaleProbability: saleProb,
			MeanHoursToSale: meanWait,
			BuyerDemand:     t.demand,
			UsedFills:       t.sold,
			FreshBuys:       t.fresh,
			FillRate:        fillRate,
			PeakDepth:       t.peakDepth,
			MeanDepth:       float64(t.depthSum) / float64(horizon),
			BuyerPaid:       t.paid,
			SellerProceeds:  t.proceeds,
			Fees:            t.fees,
		}
	}
	res.BuyerPaid, res.SellerProceeds, res.Fees = loop.book.Totals()
	return res
}

// usedBeatsFresh is the cohort buyers' rule: take the book's best
// listing when its per-remaining-hour price beats a fresh
// reservation's per-hour upfront.
func usedBeatsFresh(card pricing.InstanceType) func(marketplace.DepthSnapshot) bool {
	freshPerHour := card.Upfront / float64(card.PeriodHours)
	return func(d marketplace.DepthSnapshot) bool {
		return d.BestAsk <= freshPerHour*float64(d.BestRemaining)
	}
}

// RenderMarketOutcomes renders the session's per-instance-type table:
// the paper's exogenous sale probability alpha and waiting time as
// measured quantities.
func RenderMarketOutcomes(res *MarketResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Two-sided market session — emergent sale probability over %d hours\n", res.Horizon)
	fmt.Fprintf(&b, "%-12s %7s %6s %8s %6s %8s %10s %7s %6s %6s %7s %8s\n",
		"type", "listed", "sold", "expired", "open", "P(sale)", "wait(h)", "demand", "used", "fresh", "fill", "fees($)")
	for _, o := range res.Outcomes {
		fmt.Fprintf(&b, "%-12s %7d %6d %8d %6d %8.3f %10.1f %7d %6d %6d %6.1f%% %8.2f\n",
			o.Type, o.Listed, o.Sold, o.Expired, o.OpenAtEnd, o.SaleProbability, o.MeanHoursToSale,
			o.BuyerDemand, o.UsedFills, o.FreshBuys, o.FillRate*100, o.Fees)
	}
	fmt.Fprintf(&b, "totals: buyers paid $%.2f = sellers $%.2f + fees $%.2f\n",
		res.BuyerPaid, res.SellerProceeds, res.Fees)
	return b.String()
}
