package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"rimarket/internal/marketplace"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
)

// referenceSellEventsPerUser derives each user's sell events from full
// simulate.Run records: the instances with SoldAt >= 0, in reservation
// order. It is the oracle for sellEventsPerUser's records-free replay.
func referenceSellEventsPerUser(ctx context.Context, p *CohortPlan, policy simulate.SellingPolicy) ([][]SellEvent, error) {
	cfg := p.cfg
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount}
	perUser := make([][]SellEvent, p.Len())
	err := runIndexed(ctx, cfg.Parallelism, p.Len(), func(i int) error {
		u := p.users[i]
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

// referenceMixedSellEvents is the straightforward seller side: every
// user replayed under all three online algorithms on full Run records,
// keeping user i's events under SellingPolicies[i mod 3].
func referenceMixedSellEvents(ctx context.Context, plan *CohortPlan) ([]SellEvent, error) {
	policies, err := onlinePolicies(plan.cfg)
	if err != nil {
		return nil, err
	}
	perUser := make([][]SellEvent, plan.Len())
	for pi, policy := range policies {
		got, err := referenceSellEventsPerUser(ctx, plan, policy)
		if err != nil {
			return nil, err
		}
		for i := pi; i < len(got); i += 3 {
			perUser[i] = got[i]
		}
	}
	var events []SellEvent
	for _, evs := range perUser {
		events = append(events, evs...)
	}
	return events, nil
}

// referenceMarketScenario is RunMarketScenario written the direct way:
// a full NewCohortPlan per card (synthesis included), the three-policy
// seller side on Run records, and a buyer side that scans every
// planned user of every card every hour. RunMarketScenario must match
// it exactly.
func referenceMarketScenario(ctx context.Context, sc MarketScenario) (*MarketResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	users := make([][]PlannedUser, len(sc.Cards))
	var events []SellEvent
	for ci, card := range sc.Cards {
		cfg := sc.Base
		cfg.Instance = card
		plan, err := NewCohortPlan(ctx, cfg)
		if err != nil {
			return nil, err
		}
		evs, err := referenceMixedSellEvents(ctx, plan)
		if err != nil {
			return nil, err
		}
		users[ci] = plan.Users()
		events = append(events, evs...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Hour < events[j].Hour })

	loop, err := newMarketLoop(ctx, sc.Base.MarketFee, sc.Base.SellingDiscount)
	if err != nil {
		return nil, err
	}
	takes := make([]func(marketplace.DepthSnapshot) bool, len(sc.Cards))
	for ci, card := range sc.Cards {
		loop.typeIndex(card.Name)
		takes[ci] = usedBeatsFresh(card)
	}
	buyers := func(hour int) error {
		for ci, cardUsers := range users {
			for _, u := range cardUsers {
				if hour >= len(u.NewRes) {
					continue
				}
				for k := 0; k < u.NewRes[hour]; k++ {
					if err := loop.buy(u.Trace.User, ci, takes[ci]); err != nil {
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

// TestMarketScenarioReference pins RunMarketScenario to the reference
// oracle: the whole *MarketResult, floats bit for bit, over seeds 1–3,
// fee 0 and Amazon's fee, and one-, two- and three-card scenarios, at
// parallelism 1, 4 and NumCPU. Errors must match too: an invalid card
// and a cancelled context fail both the same way.
func TestMarketScenarioReference(t *testing.T) {
	cards := marketCards(t)
	c4, err := pricing.StandardLinuxUSEast().Lookup("c4.large")
	if err != nil {
		t.Fatal(err)
	}
	c4.PeriodHours = cards[0].PeriodHours
	c4.Upfront /= 6
	cardSets := [][]pricing.InstanceType{cards[:1], cards, append(cards[:2:2], c4)}

	traded := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, fee := range []float64{0, marketplace.AmazonFee} {
			for _, set := range cardSets {
				sc := marketScenario(t, 1)
				sc.Base.Seed = seed
				sc.Base.MarketFee = fee
				sc.Cards = set
				want, err := referenceMarketScenario(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 4, runtime.NumCPU()} {
					sc.Base.Parallelism = par
					got, err := RunMarketScenario(context.Background(), sc)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d fee %v cards %d parallelism %d: result differs from the reference:\n--- got ---\n%s--- want ---\n%s",
							seed, fee, len(set), par, RenderMarketOutcomes(got), RenderMarketOutcomes(want))
					}
				}
				for _, o := range want.Outcomes {
					traded += o.Sold
				}
			}
		}
	}
	if traded == 0 {
		t.Fatal("no scenario traded; the comparison is vacuous")
	}

	// Error parity: a card that fails validation, and a context
	// cancelled before the session starts.
	bad := marketScenario(t, 2)
	bad.Cards = append([]pricing.InstanceType(nil), bad.Cards...)
	bad.Cards[1].Upfront = -1
	_, wantErr := referenceMarketScenario(context.Background(), bad)
	_, gotErr := RunMarketScenario(context.Background(), bad)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("invalid card: error %v, reference %v", gotErr, wantErr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, wantErr = referenceMarketScenario(ctx, marketScenario(t, 2))
	_, gotErr = RunMarketScenario(ctx, marketScenario(t, 2))
	if !errors.Is(gotErr, context.Canceled) || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("cancelled context: error %v, reference %v", gotErr, wantErr)
	}
}
