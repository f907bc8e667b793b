package purchasing

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rimarket/internal/pricing"
	"rimarket/internal/workload"
)

// referenceWang is a direct transcription of Wang et al.'s online
// purchaser: it recomputes beta from a copy of the card every hour,
// rebuilds the expiry list every hour and keeps each level's window as
// its own slice of hours, pruned from the front when the level is
// touched. It is the oracle WangOnline must match decision for
// decision.
type referenceWang struct {
	Instance       pricing.InstanceType
	BreakEvenScale float64

	levels [][]int
	resExp []pendingExpiry
	active int
}

func (w *referenceWang) breakEvenHours() float64 {
	scale := w.BreakEvenScale
	if scale == 0 {
		scale = 1
	}
	it := w.Instance
	return scale * it.Upfront / (it.OnDemandHourly * (1 - it.Alpha()))
}

func (w *referenceWang) Reserve(t, demand, _ int) int {
	period := w.Instance.PeriodHours
	beta := w.breakEvenHours()

	kept := w.resExp[:0]
	for _, e := range w.resExp {
		if e.hour > t {
			kept = append(kept, e)
		} else {
			w.active -= e.count
		}
	}
	w.resExp = kept

	for len(w.levels) < demand {
		w.levels = append(w.levels, nil)
	}

	reserve := 0
	covered := w.active
	for j := 0; j < demand; j++ {
		if j < covered {
			continue
		}
		hours := append(w.levels[j], t)
		cut := 0
		for cut < len(hours) && hours[cut] <= t-period {
			cut++
		}
		hours = hours[cut:]
		if float64(len(hours)) >= beta {
			reserve++
			covered++
			hours = hours[:0]
		}
		w.levels[j] = hours
	}
	if reserve > 0 {
		w.active += reserve
		w.resExp = append(w.resExp, pendingExpiry{hour: t + period, count: reserve})
	}
	return reserve
}

// wangPlans plans demand under WangOnline and under the reference
// with the same card and scale.
func wangPlans(demand []int, it pricing.InstanceType, scale float64) (got, want []int, err error) {
	if got, err = PlanReservations(demand, it.PeriodHours, &WangOnline{Instance: it, BreakEvenScale: scale}); err != nil {
		return nil, nil, err
	}
	want, err = PlanReservations(demand, it.PeriodHours, &referenceWang{Instance: it, BreakEvenScale: scale})
	return got, want, err
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestWangOnlineMatchesReference pins WangOnline to the reference
// decision for decision over the 1,500-user seed-1 cohort at a
// one-year horizon: four cards of the catalog, each at its native
// one-year period and at a quarter year, with break-even points from
// a tenth of beta (eager) to three times beta (beyond a quarter-year
// period, so those levels never reserve). The full pass plans about
// 100k user-years; with -short or the race detector, which has no
// shared state to check here, it walks every tenth user.
func TestWangOnlineMatchesReference(t *testing.T) {
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 10
	}
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 500, Hours: pricing.HoursPerYear, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type combo struct {
		it    pricing.InstanceType
		scale float64
	}
	var combos []combo
	for _, name := range []string{"d2.xlarge", "m4.large", "t2.nano", "c4.large"} {
		card, err := pricing.StandardLinuxUSEast().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		periods := []int{card.PeriodHours}
		for _, p := range []int{pricing.HoursPerYear, pricing.HoursPerYear / 4} {
			if p != card.PeriodHours {
				periods = append(periods, p)
			}
		}
		for _, period := range periods {
			it := card
			it.PeriodHours = period
			for _, scale := range []float64{0.1, 0.5, 1, 3} {
				combos = append(combos, combo{it, scale})
			}
		}
	}

	// Users fan out over GOMAXPROCS goroutines; each compares its own
	// users and reports the first divergence it finds.
	workers := runtime.GOMAXPROCS(0)
	step := workers * stride
	reserved := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w * stride; u < len(traces); u += step {
				for _, c := range combos {
					got, want, err := wangPlans(traces[u].Demand, c.it, c.scale)
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(got, want) {
						errs[w] = fmt.Errorf("%s: %s period %d scale %v: plan diverges from the reference",
							traces[u].User, c.it.Name, c.it.PeriodHours, c.scale)
						return
					}
					for _, n := range want {
						reserved[w] += n
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for w := range errs {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		total += reserved[w]
	}
	if total == 0 {
		t.Fatal("no combination reserved anything; the comparison is vacuous")
	}
	t.Logf("every %d of %d users x %d combinations: %d reservations identical", stride, len(traces), len(combos), total)
}

// FuzzWangOnline drives WangOnline and the reference with arbitrary
// demand series, periods and break-even scales (including scales that
// put beta beyond the period, and zero, which means 1): the plans must
// be identical.
func FuzzWangOnline(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, byte(20), byte(10), byte(8))
	f.Add([]byte{5, 0, 9, 2, 7, 7, 7, 1, 0, 0, 3, 8, 8, 8, 8}, byte(5), byte(0), byte(30))
	f.Add([]byte{}, byte(1), byte(255), byte(1))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, byte(4), byte(1), byte(255))

	f.Fuzz(func(t *testing.T, demandB []byte, periodB, scaleB, upfrontB byte) {
		n := min(len(demandB), 2000)
		demand := make([]int, n)
		for i := range demand {
			demand[i] = int(demandB[i] % 16)
		}
		it := testInstance()
		it.PeriodHours = 1 + int(periodB%64)
		it.Upfront = 0.5 + float64(upfrontB)/4
		scale := float64(scaleB) / 32 // 0 (meaning 1) up to about 8 beta
		got, want, err := wangPlans(demand, it, scale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("period %d upfront %v scale %v: plan %v, reference %v",
				it.PeriodHours, it.Upfront, scale, got, want)
		}
	})
}
