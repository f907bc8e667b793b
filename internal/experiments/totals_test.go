package experiments

// Grid-level differential suite for the reused-Engine totals run: the
// grid and the Keep-Reserved baseline read only cost, sold count and
// idle hours, through the simulateTotals seam. Swapping that seam for
// fresh full simulate.Run replays must change nothing — costs, norms,
// sold counts, baselines, error text, cancellation semantics, obs
// counters — and spill stores must interchange between the two, since
// the engine behind the seam is never part of a grid's identity.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
)

// fullRunTotals is a totals seam backed by a fresh full simulate.Run
// per call: the cost, sold count and idle hours come from the run's
// per-hour and per-instance records instead of a reused Engine.
func fullRunTotals(_ *simulate.Engine, demand, newRes []int, cfg simulate.Config, policy simulate.SellingPolicy) (simulate.Totals, error) {
	res, err := simulate.Run(demand, newRes, cfg, policy)
	if err != nil {
		return simulate.Totals{}, err
	}
	tot := simulate.Totals{Cost: res.Cost, Sold: res.SoldCount()}
	for _, h := range res.Hours {
		tot.IdleHours += h.ActiveRes - (h.Demand - h.OnDemand)
	}
	return tot, nil
}

// totalsEngine returns the seam implementation for one engine mode:
// full Run replays, or the production reused-Engine totals run.
func totalsEngine(full bool) func(*simulate.Engine, []int, []int, simulate.Config, simulate.SellingPolicy) (simulate.Totals, error) {
	if full {
		return fullRunTotals
	}
	return (*simulate.Engine).Totals
}

// underFullRuns runs f with the grid and baseline on full Run replays.
func underFullRuns(f func()) {
	orig := simulateTotals
	simulateTotals = fullRunTotals
	defer func() { simulateTotals = orig }()
	f()
}

// TestBatchCohortEquivalence: the full paper pipeline — baselines, all
// six selling-policy cells, normalization — is bit-identical on reused
// Engines at every worker count and on full Run replays, under -race.
func TestBatchCohortEquivalence(t *testing.T) {
	cfg := smallConfig()
	var ref *CohortResult
	var err error
	underFullRuns(func() { ref, err = RunCohort(context.Background(), withParallelism(cfg, 1)) })
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms() {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			got, err := RunCohort(context.Background(), withParallelism(cfg, par))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Users, ref.Users) {
				t.Fatal("reused-Engine cohort differs from full-Run cohort")
			}
		})
	}
}

// TestBatchGridEquivalence compares RunGrid cell by cell, and the
// cached Keep-Reserved baselines both grids normalize against.
func TestBatchGridEquivalence(t *testing.T) {
	cfg := smallConfig()
	refPlan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ref []CellResult
	var refKeeps []KeepStat
	underFullRuns(func() {
		if ref, err = refPlan.RunGrid(context.Background(), resumeCells(t, cfg, refPlan)); err != nil {
			return
		}
		refKeeps, err = refPlan.KeepStats(context.Background(), refPlan.engineConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms() {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			plan.cfg.Parallelism = par
			plan.keeps = map[pricing.InstanceType][]KeepStat{}
			got, err := plan.RunGrid(context.Background(), resumeCells(t, cfg, plan))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("reused-Engine grid differs from full-Run grid")
			}
			keeps, err := plan.KeepStats(context.Background(), plan.engineConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(keeps, refKeeps) {
				t.Fatal("reused-Engine KeepStats differ from full-Run KeepStats (Total or IdleHours)")
			}
		})
	}
}

// TestBatchMarketSessionEquivalence: the sale events feeding market
// replay come from a records-free replay on reused Engines; per user
// they must equal the events derived from full Run records and number
// exactly the sold count the totals run reports for the same policy,
// and the session must list every one of them, identically at any
// worker count.
func TestBatchMarketSessionEquivalence(t *testing.T) {
	cfg := smallConfig()
	rates := []float64{0.05, 0.5}
	ref, err := MarketSession(context.Background(), withParallelism(cfg, 1), rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms()[1:] {
		got, err := MarketSession(context.Background(), withParallelism(cfg, par), rates)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("par=%d market session differs from par=1", par)
		}
	}

	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		t.Fatal(err)
	}
	perUser, err := plan.sellEventsPerUser(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	fromRecords, err := referenceSellEventsPerUser(context.Background(), plan, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perUser, fromRecords) {
		t.Fatal("sell events differ from the ones derived from full Run records")
	}
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount}
	var eng simulate.Engine
	sold := 0
	for i, u := range plan.Users() {
		tot, err := eng.Totals(u.Trace.Demand, u.NewRes, engCfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		if tot.Sold != len(perUser[i]) {
			t.Fatalf("user %d: %d sell events, totals run sold %d", i, len(perUser[i]), tot.Sold)
		}
		sold += tot.Sold
	}
	if sold == 0 {
		t.Fatal("the cohort sold nothing; the comparison is vacuous")
	}
	for _, pt := range ref {
		if pt.Stats.Listed != sold {
			t.Fatalf("rate %v: session listed %d, totals run sold %d", pt.BuyerRate, pt.Stats.Listed, sold)
		}
	}
}

// TestBatchErrorParity: a rejected run reports the same error text on
// reused Engines as on full Run replays, for both the grid (cell
// prefix) and the baseline (no prefix) call sites.
func TestBatchErrorParity(t *testing.T) {
	cfg := smallConfig()
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	cells := []Cell{{Name: "poison", Policy: nil, Engine: plan.engineConfig()}}
	var refErr error
	underFullRuns(func() { _, refErr = plan.RunGrid(context.Background(), cells) })
	_, gotErr := plan.RunGrid(context.Background(), cells)
	if refErr == nil || gotErr == nil {
		t.Fatalf("nil-policy cell accepted: full Run %v, reused Engine %v", refErr, gotErr)
	}
	if refErr.Error() != gotErr.Error() {
		t.Fatalf("grid error text diverges:\n  full Run:      %v\n  reused Engine: %v", refErr, gotErr)
	}

	// An invalid price card: it misses the per-card baseline cache (the
	// cache is keyed on the instance) and fails engine validation.
	bad := plan.engineConfig()
	bad.Instance.PeriodHours = 0
	underFullRuns(func() { _, refErr = plan.KeepStats(context.Background(), bad) })
	_, gotErr = plan.KeepStats(context.Background(), bad)
	if refErr == nil || gotErr == nil {
		t.Fatalf("bad engine config accepted: full Run %v, reused Engine %v", refErr, gotErr)
	}
	if refErr.Error() != gotErr.Error() {
		t.Fatalf("baseline error text diverges:\n  full Run:      %v\n  reused Engine: %v", refErr, gotErr)
	}
}

// TestBatchGridCancellation: cancelling a grid once cancelAfter cells'
// worth of engine runs have started drains the in-flight work, discards
// unfinished cells wholesale, and reports the completed prefix through
// the *CancelError contract, each completed cell equal to the
// uncancelled full-Run grid.
func TestBatchGridCancellation(t *testing.T) {
	cfg := smallConfig()
	refPlan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ref []CellResult
	underFullRuns(func() { ref, err = refPlan.RunGrid(context.Background(), resumeCells(t, cfg, refPlan)) })
	if err != nil {
		t.Fatal(err)
	}
	refByName := make(map[string]CellResult, len(ref))
	for _, cell := range ref {
		refByName[cell.Name] = cell
	}
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmBaseline(t, plan)

	for _, cancelAfter := range []int64{0, 1, 2} {
		t.Run(fmt.Sprintf("cancelAfter=%d", cancelAfter), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			orig := simulateTotals
			simulateTotals = func(e *simulate.Engine, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
				if calls.Add(1) > cancelAfter*int64(plan.Len()) {
					cancel()
				}
				return orig(e, demand, newRes, ec, pol)
			}
			defer func() { simulateTotals = orig }()

			got, err := plan.RunGrid(ctx, resumeCells(t, cfg, plan))
			if err == nil {
				t.Skip("cancellation raced completion; nothing to assert")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled in chain", err)
			}
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CancelError", err)
			}
			if ce.Total != 3 {
				t.Errorf("CancelError.Total = %d, want 3", ce.Total)
			}
			if len(got) != len(ce.Completed) {
				t.Fatalf("%d results for %d completed names", len(got), len(ce.Completed))
			}
			for i, cell := range got {
				if cell.Name != ce.Completed[i] {
					t.Errorf("result %d named %q, CancelError says %q", i, cell.Name, ce.Completed[i])
				}
				if !reflect.DeepEqual(cell, refByName[cell.Name]) {
					t.Fatalf("completed cell %q differs from the uncancelled full-Run grid", cell.Name)
				}
			}
		})
	}
}

// TestBatchSpillInterop: the engine behind the totals seam is not part
// of a grid's config hash, so a store spilled on full Run replays
// resumes on reused Engines and vice versa, without recomputing a
// single cell. ("per-user" names the full-Run mode, "batch" the
// reused-Engine one.)
func TestBatchSpillInterop(t *testing.T) {
	cfg := smallConfig()
	for _, dir := range []struct {
		name                   string
		writerFull, readerFull bool
	}{
		{name: "per-user-to-batch", writerFull: true, readerFull: false},
		{name: "batch-to-per-user", writerFull: false, readerFull: true},
	} {
		t.Run(dir.name, func(t *testing.T) {
			orig := simulateTotals
			defer func() { simulateTotals = orig }()

			spillDir := t.TempDir()
			wCfg := cfg
			wCfg.SpillDir = spillDir
			wPlan, err := NewCohortPlan(context.Background(), wCfg)
			if err != nil {
				t.Fatal(err)
			}
			simulateTotals = totalsEngine(dir.writerFull)
			ref, err := wPlan.RunGrid(context.Background(), resumeCells(t, cfg, wPlan))
			if err != nil {
				t.Fatal(err)
			}

			rCfg := cfg
			rCfg.SpillDir = spillDir
			rCfg.Resume = true
			rPlan, err := NewCohortPlan(context.Background(), rCfg)
			if err != nil {
				t.Fatal(err)
			}
			reader := totalsEngine(dir.readerFull)
			simulateTotals = reader
			// Baselines are per-plan caches, never spilled; warm them so
			// the instrumented window sees only cell work.
			warmBaseline(t, rPlan)
			// Any engine invocation would mean a cell failed to resume.
			var engineCalls atomic.Int64
			simulateTotals = func(e *simulate.Engine, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
				engineCalls.Add(1)
				return reader(e, demand, newRes, ec, pol)
			}

			got, err := rPlan.RunGrid(context.Background(), resumeCells(t, cfg, rPlan))
			if err != nil {
				t.Fatal(err)
			}
			if n := engineCalls.Load(); n != 0 {
				t.Fatalf("resume across engine modes recomputed: %d engine calls, want 0", n)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("resumed grid differs from the run that spilled it")
			}
		})
	}
}

// TestBatchObsParity pins the counter contract: a grid on reused
// Engines books the same job, cell and engine totals as one on full
// Run replays — one job and one engine run per (cell, user) pair, and
// the same hours, instances and sales.
func TestBatchObsParity(t *testing.T) {
	cfg := smallConfig()
	snapshot := func(full bool) *obs.Snapshot {
		orig := simulateTotals
		simulateTotals = totalsEngine(full)
		defer func() { simulateTotals = orig }()
		m := obs.New(obs.SystemClock)
		ctx := obs.WithMetrics(context.Background(), m)
		plan, err := NewCohortPlan(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.RunGrid(ctx, resumeCells(t, cfg, plan)); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	ref := snapshot(true)
	got := snapshot(false)

	if got.JobsTotal != ref.JobsTotal || got.JobsDone != ref.JobsDone {
		t.Errorf("jobs total/done = %d/%d on reused Engines, %d/%d on full Runs",
			got.JobsTotal, got.JobsDone, ref.JobsTotal, ref.JobsDone)
	}
	if got.CellsTotal != ref.CellsTotal || got.CellsDone != ref.CellsDone {
		t.Errorf("cells total/done = %d/%d on reused Engines, %d/%d on full Runs",
			got.CellsTotal, got.CellsDone, ref.CellsTotal, ref.CellsDone)
	}
	if got.EngineRuns != ref.EngineRuns || got.EngineHours != ref.EngineHours ||
		got.EngineInstances != ref.EngineInstances || got.EngineSold != ref.EngineSold {
		t.Errorf("engine counters diverge: reused Engines %+v, full Runs %+v", got, ref)
	}
	// Baseline (one run per user) + three grid cells.
	if users := int64(cfg.PerGroup * 3); got.EngineRuns != 4*users {
		t.Errorf("engine runs = %d, want %d (baseline + 3 cells over %d users)", got.EngineRuns, 4*users, users)
	}
}

// TestBatchAtScaleConfig runs the full pipeline comparison once at
// TestScaleConfig — the shape integration tests use — guarding against
// divergence that only appears past the unit-test cohort size. Skipped
// in -short mode.
func TestBatchAtScaleConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("scale comparison skipped in -short mode")
	}
	cfg := TestScaleConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	var ref *CohortResult
	var err error
	underFullRuns(func() { ref, err = RunCohort(context.Background(), cfg) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Users, ref.Users) {
		t.Fatal("reused-Engine pipeline diverges from full-Run pipeline at test scale")
	}
}
