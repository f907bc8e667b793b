package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"rimarket/internal/analysis"
	"rimarket/internal/core"
	"rimarket/internal/experiments"
	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// cohortPerGroup is the cohort workload's users per fluctuation group:
// 1,500 users over a one-year horizon.
const cohortPerGroup = 500

// checkedUsers is how many users a pass re-runs through the engine to
// check their costs.
const checkedUsers = 16

// runCohort is the cold paper pipeline, run the way `riexp -exp all`
// and `rimarket -session` run it: synthesize the cohort, plan it,
// compute the Keep-Reserved baseline, run the policy grid and assemble
// the per-user results, render every table and figure, then run a
// two-card market session on the same configuration. Every pass starts
// cold: nothing is carried over from the pass before.
func runCohort(opts options, traced bool) (*outcome, error) {
	cfg := experiments.DefaultConfig()
	cfg.PerGroup = cohortPerGroup
	if opts.tiny {
		cfg = experiments.TestScaleConfig()
		cfg.PerGroup = 4
	}
	cfg.Seed = opts.seed
	cards, err := marketCards(cfg.Instance)
	if err != nil {
		return nil, err
	}
	scenario := experiments.MarketScenario{Base: cfg, Cards: cards}
	// rimarket -session's default fee: with a fee the conservation
	// check has something to conserve.
	scenario.Base.MarketFee = marketplace.AmazonFee

	// Set-up is a warm-up pipeline at test scale: it checks the
	// pipeline runs and lets the runtime's lazy set-up finish before
	// anything is timed.
	setup := func() error {
		warm := experiments.TestScaleConfig()
		warm.Seed = opts.seed
		res, err := experiments.RunCohort(context.Background(), warm)
		if err != nil {
			return err
		}
		return renderAll(io.Discard, warm, res)
	}

	passes := 0
	pass := func(ctx context.Context, tr *tracer) (passOutput, error) {
		passes++
		var (
			traces   []workload.Trace
			plan     *experiments.CohortPlan
			res      *experiments.CohortResult
			market   *experiments.MarketResult
			rendered bytes.Buffer
		)
		err := tr.span("workload.synth", func() error {
			var err error
			traces, err = workload.NewCohort(workload.CohortConfig{PerGroup: cfg.PerGroup, Hours: cfg.Hours, Seed: cfg.Seed})
			return err
		})
		if err == nil {
			err = tr.span("purchasing.plan", func() error {
				var err error
				plan, err = experiments.PlanTraces(ctx, cfg, traces)
				return err
			})
		}
		if err == nil {
			err = tr.span("experiments.baseline", func() error {
				_, err := plan.KeepStats(ctx, engineConfig(cfg))
				return err
			})
		}
		if err == nil {
			err = tr.span("experiments.cohort", func() error {
				var err error
				res, err = plan.Cohort(ctx)
				return err
			})
		}
		if err == nil {
			err = tr.span("experiments.render", func() error { return renderAll(&rendered, cfg, res) })
		}
		if err == nil {
			err = tr.span("experiments.market_scenario", func() error {
				var err error
				market, err = experiments.RunMarketScenario(ctx, scenario)
				return err
			})
		}
		if err != nil {
			return passOutput{}, err
		}
		sample := rand.New(rand.NewSource(opts.seed ^ int64(passes)<<32))
		return passOutput{
			check: func() error {
				if rendered.Len() == 0 {
					return fmt.Errorf("rendered no tables")
				}
				if err := checkCohort(cfg, plan, res, sample); err != nil {
					return err
				}
				return checkMarket(market)
			},
			layers: func(tr *tracer, snap *obs.Snapshot) map[string]float64 {
				m := engineLayers(snap, runtime.GOMAXPROCS(0))
				m["workload.synth_s"] = tr.seconds("workload.synth")
				m["purchasing.plan_s"] = tr.seconds("purchasing.plan")
				m["purchasing.reserved"] = float64(reserved(plan))
				m["experiments.baseline_s"] = tr.seconds("experiments.baseline")
				// plan.Cohort's own time outside its grid span: the
				// baseline inside it is a cache hit, so the rest is the
				// assembly of the per-user results.
				m["experiments.assemble_s"] = tr.seconds("experiments.cohort") - m["experiments.grid_s"]
				m["experiments.render_s"] = tr.seconds("experiments.render")
				m["experiments.market_scenario_s"] = tr.seconds("experiments.market_scenario")
				if mk := snap.Market; mk != nil {
					m["marketplace.listings"] = float64(mk.Listings)
					m["marketplace.trades"] = float64(mk.Trades)
					m["marketplace.sale_frac"] = float64(mk.Trades) / float64(mk.Listings)
					m["marketplace.fill_frac"] = float64(mk.Trades) / float64(mk.BuyOrders)
				}
				return m
			},
		}, nil
	}
	users := 3 * cfg.PerGroup
	return runPipeline(pipeline{users: users, setup: setup, pass: pass}, opts, traced)
}

// marketCards are the two instance types the market session trades,
// d2.xlarge and m4.large, on the period of the configuration's card.
func marketCards(it pricing.InstanceType) ([]pricing.InstanceType, error) {
	cat := pricing.StandardLinuxUSEast()
	var cards []pricing.InstanceType
	for _, name := range []string{"d2.xlarge", "m4.large"} {
		card, err := cat.Lookup(name)
		if err != nil {
			return nil, err
		}
		// Scale the term with the upfront fee, as rimarket -scale does,
		// keeping every break-even unchanged.
		scale := float64(card.PeriodHours) / float64(it.PeriodHours)
		card.PeriodHours = it.PeriodHours
		card.Upfront /= scale
		cards = append(cards, card)
	}
	return cards, nil
}

// engineConfig is the engine configuration a cohort experiment's own
// parameters imply, as the drivers build it.
func engineConfig(cfg experiments.Config) simulate.Config {
	return simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount, MarketFee: cfg.MarketFee}
}

// reserved is the number of instances the plan's behaviors reserved.
func reserved(plan *experiments.CohortPlan) int {
	n := 0
	for _, u := range plan.Users() {
		n += u.Reserved
	}
	return n
}

// cohortPolicies rebuilds the paper's policy set by presentation name.
func cohortPolicies(cfg experiments.Config) (map[string]simulate.SellingPolicy, error) {
	out := map[string]simulate.SellingPolicy{experiments.PolicyKeep: core.KeepReserved{}}
	for name, k := range map[string]float64{
		experiments.PolicyA3T4: core.Fraction3T4,
		experiments.PolicyAT2:  core.FractionT2,
		experiments.PolicyAT4:  core.FractionT4,
	} {
		p, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, k)
		if err != nil {
			return nil, err
		}
		out[name] = p
	}
	for name, k := range map[string]float64{
		experiments.PolicySell3T4: core.Fraction3T4,
		experiments.PolicySellT2:  core.FractionT2,
		experiments.PolicySellT4:  core.FractionT4,
	} {
		p, err := core.NewAllSelling(k)
		if err != nil {
			return nil, err
		}
		out[name] = p
	}
	return out, nil
}

// checkCohort checks a cohort result against the engine: a seeded
// sample of users is re-run through simulate.Run under every policy
// and must cost bit-exactly what the result says, and every user's
// Keep-Reserved cost must normalize to exactly 1.
func checkCohort(cfg experiments.Config, plan *experiments.CohortPlan, res *experiments.CohortResult, sample *rand.Rand) error {
	users := plan.Users()
	if len(res.Users) != len(users) {
		return fmt.Errorf("result has %d users, plan %d", len(res.Users), len(users))
	}
	for i, u := range res.Users {
		if u.Normalized[experiments.PolicyKeep] != 1 {
			return fmt.Errorf("user %s: Keep-Reserved normalizes to %v", u.User, u.Normalized[experiments.PolicyKeep])
		}
		if u.User != users[i].Trace.User {
			return fmt.Errorf("result user %d is %s, plan has %s", i, u.User, users[i].Trace.User)
		}
	}
	policies, err := cohortPolicies(cfg)
	if err != nil {
		return err
	}
	engCfg := engineConfig(cfg)
	for n := 0; n < checkedUsers; n++ {
		i := sample.Intn(len(users))
		u, got := users[i], res.Users[i]
		if len(got.Costs) != len(policies) {
			return fmt.Errorf("user %s: %d policy costs, want %d", got.User, len(got.Costs), len(policies))
		}
		for name, policy := range policies {
			run, err := simulate.Run(u.Trace.Demand, u.NewRes, engCfg, policy)
			if err != nil {
				return fmt.Errorf("user %s: re-run %s: %w", got.User, name, err)
			}
			if want := run.Cost.Total(); math.Float64bits(want) != math.Float64bits(got.Costs[name]) {
				return fmt.Errorf("user %s: %s cost %v, engine re-run %v", got.User, name, got.Costs[name], want)
			}
		}
	}
	return nil
}

// checkMarket checks a market session's books: listings and buyer
// units are all accounted for, money is conserved, every emergent
// P(sale) and fill rate is a probability, and the book traded.
func checkMarket(res *experiments.MarketResult) error {
	trades := 0
	var paid, proceeds, fees float64
	for _, o := range res.Outcomes {
		if o.Sold+o.Expired+o.OpenAtEnd != o.Listed {
			return fmt.Errorf("%s: sold %d + expired %d + open %d != listed %d", o.Type, o.Sold, o.Expired, o.OpenAtEnd, o.Listed)
		}
		if o.UsedFills+o.FreshBuys != o.BuyerDemand || o.UsedFills != o.Sold {
			return fmt.Errorf("%s: used %d + fresh %d != demand %d, or used != sold %d", o.Type, o.UsedFills, o.FreshBuys, o.BuyerDemand, o.Sold)
		}
		if o.SaleProbability < 0 || o.SaleProbability > 1 || o.FillRate < 0 || o.FillRate > 1 {
			return fmt.Errorf("%s: P(sale) %v or fill rate %v outside [0, 1]", o.Type, o.SaleProbability, o.FillRate)
		}
		if !closeTo(o.BuyerPaid, o.SellerProceeds+o.Fees) {
			return fmt.Errorf("%s: buyers paid %v, sellers and fees got %v", o.Type, o.BuyerPaid, o.SellerProceeds+o.Fees)
		}
		trades += o.Sold
		paid += o.BuyerPaid
		proceeds += o.SellerProceeds
		fees += o.Fees
	}
	if trades == 0 {
		return fmt.Errorf("the order book made no trade")
	}
	if !closeTo(res.BuyerPaid, res.SellerProceeds+res.Fees) || !closeTo(paid, res.BuyerPaid) ||
		!closeTo(proceeds, res.SellerProceeds) || !closeTo(fees, res.Fees) {
		return fmt.Errorf("session money not conserved: paid %v, proceeds %v, fees %v", res.BuyerPaid, res.SellerProceeds, res.Fees)
	}
	return nil
}

// closeTo reports whether two independently accumulated money sums
// agree to within rounding.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

// renderAll renders every table and figure of `riexp -exp all`, in its
// order: Table I, Fig. 2, Fig. 3, Fig. 4, Table II, Table III and the
// competitive-ratio bounds.
func renderAll(w io.Writer, cfg experiments.Config, res *experiments.CohortResult) error {
	table1Card, err := pricing.StandardLinuxUSEast().Lookup(cfg.Instance.Name)
	if err != nil {
		table1Card = cfg.Instance
	}
	fmt.Fprintln(w, experiments.Table1(table1Card))
	fmt.Fprintln(w, experiments.RenderFig2(experiments.Fig2(res)))
	for _, p := range experiments.SellingPolicies {
		sum, err := experiments.Fig3(res.Users, p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderFig3(sum))
	}
	for _, fg := range experiments.Fig4(res) {
		fmt.Fprintln(w, experiments.RenderFig4(fg))
	}
	t2, err := experiments.Table2(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t2)
	fmt.Fprintln(w, experiments.RenderTable3(experiments.Table3(res)))
	return renderBounds(w, cfg)
}

// renderBounds renders the competitive-ratio bounds section of `riexp
// -exp all`: the proven bounds over the catalog and for the card, the
// adversarially measured ratios, and the randomized algorithm's
// expected ratio on the fixed algorithm's worst cases.
func renderBounds(w io.Writer, cfg experiments.Config) error {
	cat := pricing.StandardLinuxUSEast()
	for _, k := range []float64{core.Fraction3T4, core.FractionT2, core.FractionT4} {
		rep, err := analysis.AnalyzeCatalog(cat, k, cfg.SellingDiscount)
		if err != nil {
			return err
		}
		policy, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, k)
		if err != nil {
			return err
		}
		worst, err := analysis.WorstMeasuredRatio(policy, cfg.SellingDiscount)
		if err != nil {
			return err
		}
		bound, err := analysis.BoundForInstance(cfg.Instance, k, cfg.SellingDiscount)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s catalog worst %.4f, %s %.4f, measured %.4f\n",
			policy.Name(), rep.WorstBound.Ratio, cfg.Instance.Name, bound.Ratio, worst)
	}
	randomized, err := core.NewRandomized(cfg.Instance, cfg.SellingDiscount, core.ExponentialFractions{}, cfg.Seed)
	if err != nil {
		return err
	}
	fixed, err := core.NewAT4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return err
	}
	sellMistake, keepMistake, err := analysis.AdversarialSchedules(fixed)
	if err != nil {
		return err
	}
	for _, sched := range [][]bool{sellMistake, keepMistake} {
		fixedRatio, err := analysis.FixedUnrestrictedRatio(sched, fixed)
		if err != nil {
			return err
		}
		randRatio, err := analysis.RandomizedExpectedRatio(sched, randomized, 128)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "fixed %.4f, E[randomized] %.4f\n", fixedRatio, randRatio)
	}
	return nil
}
