package simulate

import (
	"reflect"
	"testing"

	"rimarket/internal/obs"
)

// obsSeries is a demand/reservation pair big enough to exercise
// activation, sales and expiry.
func obsSeries() (demand, newRes []int) {
	demand = make([]int, 120)
	newRes = make([]int, 120)
	for t := range demand {
		demand[t] = (t*7 + 3) % 5
	}
	newRes[0] = 4
	newRes[25] = 2
	newRes[60] = 3
	return demand, newRes
}

// TestRunMetricsCounts checks the engine's end-of-run hook books
// exactly what the Result reports.
func TestRunMetricsCounts(t *testing.T) {
	demand, newRes := obsSeries()
	var em obs.EngineMetrics
	cfg := testConfig()
	cfg.Metrics = &em

	res, err := Run(demand, newRes, cfg, sellAlways{age: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := em.Runs.Value(); got != 1 {
		t.Errorf("Runs = %d, want 1", got)
	}
	if got := em.Hours.Value(); got != int64(len(demand)) {
		t.Errorf("Hours = %d, want %d", got, len(demand))
	}
	if got := em.Instances.Value(); got != int64(len(res.Instances)) {
		t.Errorf("Instances = %d, want %d", got, len(res.Instances))
	}
	if got := em.Sold.Value(); got != int64(res.SoldCount()) {
		t.Errorf("Sold = %d, want %d", got, res.SoldCount())
	}
	if em.Sold.Value() == 0 {
		t.Fatal("fixture sold nothing; the Sold count check is vacuous")
	}

	// A failed run records nothing.
	if _, err := Run(demand[:10], newRes, cfg, sellAlways{age: 10}); err == nil {
		t.Fatal("mismatched series should fail")
	}
	if got := em.Runs.Value(); got != 1 {
		t.Errorf("failed run was recorded: Runs = %d", got)
	}

	// A totals run books exactly what the equivalent Run booked.
	var eng Engine
	var tm obs.EngineMetrics
	cfg.Metrics = &tm
	if _, err := eng.Totals(demand[:10], newRes, cfg, sellAlways{age: 10}); err == nil {
		t.Fatal("mismatched series should fail")
	}
	if _, err := eng.Totals(demand, newRes, cfg, sellAlways{age: 10}); err != nil {
		t.Fatal(err)
	}
	got := [4]int64{tm.Runs.Value(), tm.Hours.Value(), tm.Instances.Value(), tm.Sold.Value()}
	want := [4]int64{em.Runs.Value(), em.Hours.Value(), em.Instances.Value(), em.Sold.Value()}
	if got != want {
		t.Errorf("totals run booked runs/hours/instances/sold %v, Run booked %v", got, want)
	}
}

// TestRunMetricsNoPerturbation is the engine-level slice of the
// differential invariant: a config differing only in Metrics produces
// a deeply equal Result.
func TestRunMetricsNoPerturbation(t *testing.T) {
	demand, newRes := obsSeries()
	for _, policy := range []SellingPolicy{KeepReserved{}, sellAlways{age: 10}, sellNever{age: 10}} {
		base := testConfig()
		plain, err := Run(demand, newRes, base, policy)
		if err != nil {
			t.Fatal(err)
		}
		observed := base
		observed.Metrics = new(obs.EngineMetrics)
		withObs, err := Run(demand, newRes, observed, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withObs) {
			t.Errorf("policy %T: result differs with Metrics attached", policy)
		}
		var eng Engine
		plainTot, err := eng.Totals(demand, newRes, base, policy)
		if err != nil {
			t.Fatal(err)
		}
		withObsTot, err := eng.Totals(demand, newRes, observed, policy)
		if err != nil {
			t.Fatal(err)
		}
		if plainTot != withObsTot || plainTot != totalsOf(plain) {
			t.Errorf("policy %T: totals %+v with Metrics, %+v without, Run says %+v",
				policy, withObsTot, plainTot, totalsOf(plain))
		}
	}
}

// TestRunMetricsAllocParity proves the hook adds zero allocations to
// the hot path: Run with Metrics attached allocates exactly as many
// times as Run without. (The benchmark BenchmarkObsOverhead pins the
// same property at full experiment scale with time bounds.)
func TestRunMetricsAllocParity(t *testing.T) {
	demand, newRes := obsSeries()
	cfgOff := testConfig()
	cfgOn := testConfig()
	cfgOn.Metrics = new(obs.EngineMetrics)
	policy := sellAlways{age: 10}

	run := func(cfg Config) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Run(demand, newRes, cfg, policy); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := run(cfgOff), run(cfgOn)
	if on != off {
		t.Errorf("allocs/op with metrics = %.1f, without = %.1f; hook must add none", on, off)
	}
}

// TestTotalsWarmZeroAllocs pins the reusable engine's contract: once an
// Engine's scratch has grown to fit a user, replaying that user again,
// and appending its sales into the buffer the last replay filled,
// allocates nothing — with or without the metrics hook, and for the
// single-checkpoint, multi-checkpoint and per-instance policy shapes.
func TestTotalsWarmZeroAllocs(t *testing.T) {
	demand, newRes := obsSeries()
	cfg := testConfig()
	cfg.Metrics = new(obs.EngineMetrics)
	sold := 0
	for _, policy := range []SellingPolicy{
		KeepReserved{},
		sellAlways{age: 10},
		diffMulti{ages: []int{40, 10, 10, -1, 25}, threshold: 5},
		diffPerInstance{seed: 7, threshold: 5},
	} {
		var eng Engine
		if _, err := eng.Totals(demand, newRes, cfg, policy); err != nil {
			t.Fatal(err)
		}
		sales := eng.AppendSales(nil)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := eng.Totals(demand, newRes, cfg, policy); err != nil {
				t.Fatal(err)
			}
			sales = eng.AppendSales(sales[:0])
		})
		if allocs != 0 {
			t.Errorf("policy %T: warm Totals+AppendSales allocates %.1f times per run, want 0", policy, allocs)
		}
		sold += len(sales)
	}
	if sold == 0 {
		t.Fatal("no policy sold anything; the AppendSales path went unexercised")
	}
}
