package simulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

// This file pins cohort replay — many users through reused Engines,
// the way the experiment drivers keep one Engine per worker — to
// per-user Run: over 250 seeded cohort cases covering every policy
// shape, cohort sizes from empty to dozens of users, mixed trace
// lengths and checkpoint densities, every user's Totals must equal the
// totals its full Run implies, bit for bit, at every parallelism. CI
// runs this under -race, which also proves that Engines on different
// goroutines share no state.

// cohortUser is one user's input series.
type cohortUser struct {
	demand []int
	newRes []int
}

// batchCase is one sampled cohort with its shared config and policy.
type batchCase struct {
	name   string
	users  []cohortUser
	cfg    Config
	policy SellingPolicy
}

// sampleBatchCase draws a cohort case from rng: the pricing card,
// marketplace parameters and policy shapes are drawn exactly like the
// per-user differential's sampleDiffCase, then a cohort of varied size
// is drawn with per-user horizons deliberately ragged.
func sampleBatchCase(rng *rand.Rand, i int) batchCase {
	period := 8 + rng.Intn(53)
	card := pricing.InstanceType{
		Name:           "batch.case",
		OnDemandHourly: []float64{0.5, 1.0, 1.7}[rng.Intn(3)],
		Upfront:        []float64{40, 100, 250}[rng.Intn(3)],
		ReservedHourly: []float64{0.1, 0.25}[rng.Intn(2)],
		PeriodHours:    period,
	}
	cfg := Config{
		Instance:        card,
		SellingDiscount: float64(rng.Intn(11)) / 10,
		RecordSchedules: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 0:
		cfg.MarketFee = 0.12
	case 1:
		cfg.MarketFee = rng.Float64() * 0.9
	}

	threshold := rng.Intn(period + 2)
	var policy SellingPolicy
	var shape string
	switch i % 5 {
	case 0:
		shape = "keep-reserved"
		policy = KeepReserved{}
	case 1:
		shape = "fixed"
		policy = diffFixed{age: rng.Intn(period+4) - 2, threshold: threshold}
	case 2:
		shape = "fixed-sell-all"
		policy = diffFixed{age: 1 + rng.Intn(period-1), threshold: period + 1}
	case 3:
		shape = "multi"
		ages := make([]int, 1+rng.Intn(5))
		for j := range ages {
			ages[j] = rng.Intn(period+6) - 3 // dirty on purpose
		}
		policy = diffMulti{ages: ages, threshold: threshold}
	default:
		shape = "per-instance"
		policy = diffPerInstance{seed: rng.Uint64(), threshold: threshold}
	}

	size := [...]int{0, 1, 2, 3, 5, 8, 13, 21, 34}[rng.Intn(9)]
	users := make([]cohortUser, size)
	for u := range users {
		horizon := rng.Intn(161) // 0..160, ragged across the cohort
		demand := make([]int, horizon)
		newRes := make([]int, horizon)
		for t := range demand {
			demand[t] = rng.Intn(9)
			if rng.Intn(3) == 0 {
				newRes[t] = rng.Intn(4)
			}
		}
		users[u] = cohortUser{demand: demand, newRes: newRes}
	}
	return batchCase{
		name:   fmt.Sprintf("case%03d/%s/users=%d/period=%d", i, shape, size, period),
		users:  users,
		cfg:    cfg,
		policy: policy,
	}
}

// cohortTotals replays a cohort over par goroutines (non-positive means
// GOMAXPROCS), each owning one Engine reused across a contiguous shard
// of users. A shard stops at its first invalid user; the error returned
// is the lowest-indexed user's, with that index, as a sequential loop
// over Run would report it.
func cohortTotals(users []cohortUser, cfg Config, policy SellingPolicy, par int) ([]Totals, int, error) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(users) {
		par = len(users)
	}
	out := make([]Totals, len(users))
	errIdx := make([]int, par)
	errs := make([]error, par)
	var wg sync.WaitGroup
	for s := 0; s < par; s++ {
		lo, hi := s*len(users)/par, (s+1)*len(users)/par
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			var eng Engine
			for u := lo; u < hi; u++ {
				tot, err := eng.Totals(users[u].demand, users[u].newRes, cfg, policy)
				if err != nil {
					errIdx[s], errs[s] = u, err
					return
				}
				out[u] = tot
			}
		}(s, lo, hi)
	}
	wg.Wait()
	for s := range errs {
		if errs[s] != nil {
			return nil, errIdx[s], errs[s]
		}
	}
	return out, -1, nil
}

// TestDifferentialBatchEquivalence is cohort replay's safety net: 250
// seeded cohorts, every policy shape, and every user's Totals ≡ the
// totals its per-user Run implies — from one Engine carried across all
// 250 cases, whose AppendSales must also return the user's sold
// records from Run, and from fresh per-goroutine Engines at parallelism 1, 3
// and GOMAXPROCS — with bit-identical floats throughout.
func TestDifferentialBatchEquivalence(t *testing.T) {
	const cases = 250
	rng := rand.New(rand.NewSource(20180708)) // same vintage, fresh stream
	parallelisms := []int{1, 3, 0}            // 0 = GOMAXPROCS
	var carried Engine
	var sales []InstanceRecord // reused across users: a stale tail would show
	for i := 0; i < cases; i++ {
		c := sampleBatchCase(rng, i)
		t.Run(c.name, func(t *testing.T) {
			want := make([]Totals, len(c.users))
			wantSales := make([][]InstanceRecord, len(c.users))
			for u := range c.users {
				res, err := Run(c.users[u].demand, c.users[u].newRes, c.cfg, c.policy)
				if err != nil {
					t.Fatalf("per-user engine rejected sampled input: %v", err)
				}
				want[u] = totalsOf(res)
				wantSales[u] = salesOf(res)
			}

			for u := range want {
				got, err := carried.Totals(c.users[u].demand, c.users[u].newRes, c.cfg, c.policy)
				if err != nil {
					t.Fatalf("carried Engine: %v", err)
				}
				if got != want[u] {
					t.Fatalf("carried Engine user %d: totals differ:\n got %+v\nwant %+v", u, got, want[u])
				}
				sales = carried.AppendSales(sales[:0])
				assertSalesIdentical(t, sales, wantSales[u])
			}

			for _, par := range parallelisms {
				totals, _, err := cohortTotals(c.users, c.cfg, c.policy, par)
				if err != nil {
					t.Fatalf("cohortTotals(par=%d): %v", par, err)
				}
				for u := range want {
					if totals[u] != want[u] {
						t.Fatalf("par=%d user %d: totals differ:\n got %+v\nwant %+v",
							par, u, totals[u], want[u])
					}
				}
			}
		})
	}
}

// TestCohortTotalsParallelismInvariance replays one larger cohort at
// every parallelism from 1 to GOMAXPROCS+2 and requires bit-identical
// outputs — how users are split across Engines must be unobservable.
func TestCohortTotalsParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	users := make([]cohortUser, 57)
	for u := range users {
		horizon := 40 + rng.Intn(100)
		demand := make([]int, horizon)
		newRes := make([]int, horizon)
		for h := range demand {
			demand[h] = rng.Intn(7)
			if rng.Intn(4) == 0 {
				newRes[h] = rng.Intn(3)
			}
		}
		users[u] = cohortUser{demand: demand, newRes: newRes}
	}
	cfg := testConfig()
	policy := diffFixed{age: cfg.Instance.PeriodHours / 2, threshold: cfg.Instance.PeriodHours / 4}

	base, _, err := cohortTotals(users, cfg, policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	sold := 0
	for _, tot := range base {
		sold += tot.Sold
	}
	if sold == 0 {
		t.Fatal("fixture sold nothing; the comparison cannot see sale state")
	}
	for par := 2; par <= runtime.GOMAXPROCS(0)+2; par++ {
		got, _, err := cohortTotals(users, cfg, policy, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("par=%d: totals differ from sequential run", par)
		}
	}
}

// TestBatchValidationParity pins cohort replay's validation to
// per-user Run: the same error text for the same bad input, reported
// for the lowest invalid user index at any parallelism.
func TestBatchValidationParity(t *testing.T) {
	cfg := testConfig()
	good := cohortUser{demand: []int{1, 2}, newRes: []int{1, 0}}
	cases := []struct {
		name   string
		users  []cohortUser
		cfg    Config
		policy SellingPolicy
		index  int
	}{
		{"length mismatch", []cohortUser{good, {demand: []int{1}, newRes: []int{0, 0}}}, cfg, KeepReserved{}, 1},
		{"negative demand", []cohortUser{{demand: []int{-4}, newRes: []int{0}}, good}, cfg, KeepReserved{}, 0},
		{"negative res", []cohortUser{good, good, {demand: []int{4}, newRes: []int{-1}}}, cfg, KeepReserved{}, 2},
		{"bad cfg", []cohortUser{good}, Config{Instance: testInstance(), SellingDiscount: 2}, KeepReserved{}, 0},
		{"nil policy", []cohortUser{good, good}, cfg, nil, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := c.users[c.index]
			_, wantErr := Run(bad.demand, bad.newRes, c.cfg, c.policy)
			if wantErr == nil {
				t.Fatal("per-user engine accepted the bad input")
			}
			for _, par := range []int{1, 3} {
				_, idx, err := cohortTotals(c.users, c.cfg, c.policy, par)
				if err == nil {
					t.Fatalf("par=%d: cohort replay accepted the bad input", par)
				}
				if idx != c.index {
					t.Fatalf("par=%d: reported user %d, want lowest invalid index %d", par, idx, c.index)
				}
				if err.Error() != wantErr.Error() {
					t.Fatalf("par=%d: error %q, per-user engine says %q", par, err, wantErr)
				}
			}
		})
	}

	t.Run("empty cohort", func(t *testing.T) {
		// Zero users never reach validation, matching a loop over Run
		// that never executes — even under a bad config.
		tot, _, err := cohortTotals(nil, Config{}, nil, 0)
		if err != nil || len(tot) != 0 {
			t.Fatalf("empty cohort: %d totals, err %v", len(tot), err)
		}
		// Zero-hour users are valid and cost nothing, on a warm Engine
		// as on a fresh one.
		var eng Engine
		demand, newRes := obsSeries()
		if _, err := eng.Totals(demand, newRes, cfg, sellAlways{age: 10}); err != nil {
			t.Fatal(err)
		}
		res, err := Run(nil, nil, cfg, sellAlways{age: 10})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Totals(nil, nil, cfg, sellAlways{age: 10})
		if err != nil || got != totalsOf(res) || got != (Totals{}) {
			t.Fatalf("zero-hour user: totals %+v, err %v; Run says %+v", got, err, totalsOf(res))
		}
	})
}

// TestBatchAliasedUsers: Totals documents that callers may alias one
// backing trace across many users; aliased and copied cohorts must
// produce identical outputs, and the shared inputs must come back
// untouched.
func TestBatchAliasedUsers(t *testing.T) {
	demand := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	newRes := []int{2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0}
	cfg := testConfig()
	policy := diffFixed{age: cfg.Instance.PeriodHours / 3, threshold: cfg.Instance.PeriodHours}

	aliased := make([]cohortUser, 40)
	copied := make([]cohortUser, 40)
	for u := range aliased {
		aliased[u] = cohortUser{demand: demand, newRes: newRes}
		copied[u] = cohortUser{
			demand: append([]int(nil), demand...),
			newRes: append([]int(nil), newRes...),
		}
	}
	res, err := Run(demand, newRes, cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		a, _, err := cohortTotals(aliased, cfg, policy, par)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := cohortTotals(copied, cfg, policy, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("par=%d: aliased cohort totals differ from copied cohort totals", par)
		}
		for u := range a {
			if a[u] != totalsOf(res) {
				t.Fatalf("par=%d user %d: totals %+v, Run says %+v", par, u, a[u], totalsOf(res))
			}
		}
	}
	if !reflect.DeepEqual(demand, []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}) ||
		!reflect.DeepEqual(newRes, []int{2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0}) {
		t.Fatal("cohort replay mutated a shared input series")
	}
}

// TestBatchMetricsParity: a cohort replayed through one reused Engine
// books the per-run counters exactly as a loop over Run does — one run
// per user, and the same hours, instances and sales.
func TestBatchMetricsParity(t *testing.T) {
	demand, newRes := obsSeries()
	users := []cohortUser{
		{demand: []int{1, 2, 3, 4}, newRes: []int{1, 0, 1, 0}},
		{demand: demand, newRes: newRes},
		{demand: []int{5, 5}, newRes: []int{2, 0}},
	}
	policy := sellAlways{age: 10}
	cfg := testConfig()
	var perUser obs.EngineMetrics
	for _, u := range users {
		c := cfg
		c.Metrics = &perUser
		if _, err := Run(u.demand, u.newRes, c, policy); err != nil {
			t.Fatal(err)
		}
	}
	var reused obs.EngineMetrics
	c := cfg
	c.Metrics = &reused
	var eng Engine
	for _, u := range users {
		if _, err := eng.Totals(u.demand, u.newRes, c, policy); err != nil {
			t.Fatal(err)
		}
	}
	if perUser.Sold.Value() == 0 {
		t.Fatal("fixture sold nothing; the Sold count check is vacuous")
	}
	got := [4]int64{reused.Runs.Value(), reused.Hours.Value(), reused.Instances.Value(), reused.Sold.Value()}
	want := [4]int64{perUser.Runs.Value(), perUser.Hours.Value(), perUser.Instances.Value(), perUser.Sold.Value()}
	if got != want {
		t.Fatalf("reused Engine booked runs/hours/instances/sold %v, per-user Run %v", got, want)
	}
	if got[0] != int64(len(users)) {
		t.Fatalf("Runs = %d, want one per user (%d)", got[0], len(users))
	}
}
