package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"rimarket/internal/coltrace"
	"rimarket/internal/experiments"
	"rimarket/internal/obs"
	"rimarket/internal/workload"
)

// The sweep workload's grids, as riexp runs them: the a-by-k
// sensitivity grid and the k, a and fee sweeps, then the legacy market
// session over riexp's buyer rates.
var (
	sensDiscounts = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	sensFractions = []float64{0.125, 0.25, 0.5, 0.75, 0.875}
	sweepK        = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}
	sweepA        = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	sweepFee      = []float64{0, 0.06, 0.12, 0.24}
	buyerRates    = []float64{0.05, 0.2, 1, 5}
)

// runSweep is warm grids over one plan: the paper-scale cohort is
// loaded from a .colt store written at set-up, planned once, and run
// through the sensitivity grid, the three sweeps and the legacy market
// session with every grid spilled to disk; then the sensitivity grid
// is resumed from the spill in a fresh plan.
func runSweep(opts options, traced bool) (*outcome, error) {
	cfg := experiments.DefaultConfig()
	if opts.tiny {
		cfg = experiments.TestScaleConfig()
		cfg.PerGroup = 4
	}
	cfg.Seed = opts.seed
	store := filepath.Join(opts.workdir, "cohort"+coltrace.Ext)

	// Set-up synthesizes the cohort and writes it as a .colt store.
	setup := func() error {
		traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: cfg.PerGroup, Hours: cfg.Hours, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		c, err := coltrace.FromTraces(traces)
		if err != nil {
			return err
		}
		return coltrace.WriteFile(store, c)
	}

	passes := 0
	pass := func(ctx context.Context, tr *tracer) (passOutput, error) {
		passes++
		spillCfg := cfg
		spillCfg.SpillDir = filepath.Join(opts.workdir, fmt.Sprintf("spill-%d", passes))
		var (
			traces            []workload.Trace
			plan, resumedPlan *experiments.CohortPlan
			sens, resumed     experiments.SensitivityGrid
			ks, as, fees      []experiments.SweepPoint
			market            []experiments.MarketPoint
		)
		err := tr.span("coltrace.decode", func() error {
			cohorts, err := coltrace.ReadFile(store)
			if err != nil {
				return err
			}
			traces, err = coltrace.MergeTraces(cohorts...)
			return err
		})
		if err == nil {
			err = tr.span("purchasing.plan", func() error {
				var err error
				plan, err = experiments.PlanTraces(ctx, spillCfg, traces)
				return err
			})
		}
		if err == nil {
			err = tr.span("experiments.sweeps", func() error {
				var err error
				if sens, err = plan.Sensitivity(ctx, sensDiscounts, sensFractions); err != nil {
					return err
				}
				if ks, err = plan.SweepFraction(ctx, sweepK); err != nil {
					return err
				}
				if as, err = plan.SweepDiscount(ctx, sweepA); err != nil {
					return err
				}
				fees, err = plan.SweepMarketFee(ctx, sweepFee)
				return err
			})
		}
		if err == nil {
			err = tr.span("experiments.market_session", func() error {
				var err error
				market, err = plan.MarketSession(ctx, buyerRates)
				return err
			})
		}
		// The resume runs in a fresh plan. When traced it gets metrics
		// of its own, so the grid and baseline spans read from ctx stay
		// those of the fresh grids.
		resumeCtx := ctx
		if obs.FromContext(ctx) != nil {
			resumeCtx = obs.WithMetrics(context.Background(), obs.New(obs.SystemClock))
		}
		resumeCfg := spillCfg
		resumeCfg.Resume = true
		if err == nil {
			err = tr.span("purchasing.plan", func() error {
				var err error
				resumedPlan, err = experiments.PlanTraces(resumeCtx, resumeCfg, traces)
				return err
			})
		}
		if err == nil {
			err = tr.span("gridstore.resume", func() error {
				var err error
				resumed, err = resumedPlan.Sensitivity(resumeCtx, sensDiscounts, sensFractions)
				return err
			})
		}
		if err != nil {
			return passOutput{}, err
		}
		return passOutput{
			check: func() error {
				defer os.RemoveAll(spillCfg.SpillDir)
				return checkSweep(sens, resumed, ks, as, fees, market)
			},
			layers: func(tr *tracer, snap *obs.Snapshot) map[string]float64 {
				m := engineLayers(snap, runtime.GOMAXPROCS(0))
				m["experiments.baseline_s"] = spanSeconds(snap)["baseline"]
				m["coltrace.decode_s"] = tr.seconds("coltrace.decode")
				m["purchasing.plan_s"] = tr.seconds("purchasing.plan")
				m["purchasing.reserved"] = float64(reserved(plan))
				m["experiments.market_session_s"] = tr.seconds("experiments.market_session")
				m["gridstore.resume_s"] = tr.seconds("gridstore.resume")
				if n, err := dirBytes(spillCfg.SpillDir); err == nil {
					m["gridstore.spill_bytes"] = float64(n)
				}
				return m
			},
		}, nil
	}
	return runPipeline(pipeline{users: 3 * cfg.PerGroup, setup: setup, pass: pass}, opts, traced)
}

// checkSweep checks the sweep's grids against each other: the
// sensitivity grid's a=0.8 row must equal the k sweep, its k=0.75
// column the a sweep and the zero-fee point of the fee sweep, all
// bit-exactly; the grid resumed from the spill must equal the fresh
// one; and the market session must account for every listing.
func checkSweep(sens, resumed experiments.SensitivityGrid, ks, as, fees []experiments.SweepPoint, market []experiments.MarketPoint) error {
	if !reflect.DeepEqual(sens, resumed) {
		return fmt.Errorf("sensitivity grid resumed from the spill differs from the fresh grid")
	}
	row := indexOf(sens.Discounts, 0.8)
	col := indexOf(sens.Fractions, 0.75)
	for j, k := range sens.Fractions {
		if err := samePoint(ks, k, sens.Mean[row][j], "k sweep"); err != nil {
			return err
		}
	}
	for i, a := range sens.Discounts {
		if err := samePoint(as, a, sens.Mean[i][col], "a sweep"); err != nil {
			return err
		}
	}
	if err := samePoint(fees, 0, sens.Mean[row][col], "fee sweep"); err != nil {
		return err
	}
	if len(market) != len(buyerRates) {
		return fmt.Errorf("market session has %d points, want %d", len(market), len(buyerRates))
	}
	for _, pt := range market {
		s := pt.Stats
		if s.Listed == 0 || s.Sold+s.Expired+s.OpenAtEnd != s.Listed {
			return fmt.Errorf("market session at %v buyers/h: sold %d + expired %d + open %d != listed %d",
				pt.BuyerRate, s.Sold, s.Expired, s.OpenAtEnd, s.Listed)
		}
	}
	return nil
}

// samePoint checks that the sweep point at value has mean normalized
// cost want, bit-exactly.
func samePoint(points []experiments.SweepPoint, value, want float64, sweep string) error {
	for _, pt := range points {
		if pt.Value == value {
			if math.Float64bits(pt.MeanNormalized) != math.Float64bits(want) {
				return fmt.Errorf("%s at %v: mean %v, sensitivity grid %v", sweep, value, pt.MeanNormalized, want)
			}
			return nil
		}
	}
	return fmt.Errorf("%s has no point at %v", sweep, value)
}

// indexOf is the index of v in xs; the axes are the package's own, so
// v is always there.
func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	panic(fmt.Sprintf("%v not on the axis %v", v, xs))
}
