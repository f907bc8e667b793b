package simulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rimarket/internal/pricing"
)

// This file pins the optimized Run and the reused-Engine Totals run to
// the reference engine (reference_test.go): over hundreds of seeded
// random cases covering every policy shape the engine distinguishes,
// Run must produce field-for-field identical Results and Totals the
// matching totals — including bit-identical float accounting, which
// holds because every engine accumulates income in the same
// working-sequence order. CI runs this under -race.

// diffFixed is a plain fixed-checkpoint policy with the paper's
// threshold shape: sell iff the working time is below the threshold.
type diffFixed struct {
	age       int
	threshold int
}

func (p diffFixed) CheckpointAge(int) int { return p.age }
func (p diffFixed) ShouldSell(ck Checkpoint) bool {
	return ck.Worked < p.threshold
}

// diffMulti revisits the decision at raw ages that may be duplicated,
// non-positive or beyond the period — the engine must clean them up.
type diffMulti struct {
	ages      []int
	threshold int
}

func (p diffMulti) CheckpointAge(int) int {
	if len(p.ages) == 0 {
		return -1
	}
	return p.ages[0]
}
func (p diffMulti) CheckpointAges(int) []int { return p.ages }
func (p diffMulti) ShouldSell(ck Checkpoint) bool {
	return ck.Worked < p.threshold
}

// diffPerInstance gives each instance a hash-derived age; roughly a
// third of the draws land outside (0, period) so some instances are
// never offered for sale, exactly as PerInstancePolicy allows.
type diffPerInstance struct {
	seed      uint64
	threshold int
}

func (p diffPerInstance) CheckpointAge(period int) int { return period / 2 }
func (p diffPerInstance) ShouldSell(ck Checkpoint) bool {
	return ck.Worked < p.threshold
}
func (p diffPerInstance) InstanceCheckpointAge(start, batchIndex, period int) int {
	h := p.seed ^ uint64(start)*0x9e3779b97f4a7c15 ^ uint64(batchIndex)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return int(h%uint64(period+period/2+2)) - period/4
}

// diffCase is one sampled (demand, newRes, cfg, policy) tuple.
type diffCase struct {
	name   string
	demand []int
	newRes []int
	cfg    Config
	policy SellingPolicy
}

// sampleDiffCase draws a case from rng, cycling the policy shape so
// every shape gets an equal share of the budget.
func sampleDiffCase(rng *rand.Rand, i int) diffCase {
	horizon := rng.Intn(161) // 0..160, including the empty series
	period := 8 + rng.Intn(53)
	card := pricing.InstanceType{
		Name:           "diff.case",
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

	demand := make([]int, horizon)
	newRes := make([]int, horizon)
	for t := range demand {
		demand[t] = rng.Intn(9)
		if rng.Intn(3) == 0 {
			newRes[t] = rng.Intn(4)
		}
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
	return diffCase{
		name:   fmt.Sprintf("case%03d/%s/T=%d/period=%d", i, shape, horizon, period),
		demand: demand,
		newRes: newRes,
		cfg:    cfg,
		policy: policy,
	}
}

// assertResultsIdentical fails with the first differing field rather
// than dumping both Results wholesale.
func assertResultsIdentical(t *testing.T, got, want Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("Cost differs:\n got %+v\nwant %+v", got.Cost, want.Cost)
	}
	if len(got.Hours) != len(want.Hours) {
		t.Fatalf("Hours length %d, want %d", len(got.Hours), len(want.Hours))
	}
	for h := range want.Hours {
		if got.Hours[h] != want.Hours[h] {
			t.Fatalf("hour %d differs:\n got %+v\nwant %+v", h, got.Hours[h], want.Hours[h])
		}
	}
	if len(got.Instances) != len(want.Instances) {
		t.Fatalf("Instances length %d, want %d", len(got.Instances), len(want.Instances))
	}
	for i := range want.Instances {
		g, w := got.Instances[i], want.Instances[i]
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("instance %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ outside known fields:\n got %+v\nwant %+v", got, want)
	}
}

// totalsOf derives the totals Engine.Totals must return from a full
// Result: the cost, the sold count, and the active reserved hours that
// served no demand.
func totalsOf(res Result) Totals {
	tot := Totals{Cost: res.Cost, Sold: res.SoldCount()}
	for _, h := range res.Hours {
		tot.IdleHours += h.ActiveRes - (h.Demand - h.OnDemand)
	}
	return tot
}

// salesOf is what AppendSales must return after a Totals run on the
// same inputs: Run's sold instances in reservation order, without
// schedules (Totals records none).
func salesOf(res Result) []InstanceRecord {
	var out []InstanceRecord
	for _, in := range res.Instances {
		if in.SoldAt >= 0 {
			in.Schedule = nil
			out = append(out, in)
		}
	}
	return out
}

// assertSalesIdentical fails unless got and want hold the same
// records, field for field and in order.
func assertSalesIdentical(t *testing.T, got, want []InstanceRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("AppendSales returned %d records, Run sold %d", len(got), len(want))
	}
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("sale %d differs:\n got %+v\nwant %+v", k, got[k], want[k])
		}
	}
}

// assertErrorsIdentical fails unless got and want are both nil or
// both non-nil with the same text.
func assertErrorsIdentical(t *testing.T, engine string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s error mismatch: got %v, reference %v", engine, got, want)
	}
	if got != nil && got.Error() != want.Error() {
		t.Fatalf("%s error text mismatch: got %q, reference %q", engine, got, want)
	}
}

// TestDifferentialEngineEquivalence is the safety net for the
// optimized engine: ≥200 seeded cases, every policy shape, optimized
// Run ≡ runReference field for field, and Totals ≡ the reference's
// totals, and AppendSales after Totals ≡ the reference's sold
// instance records. One Engine serves every case, so scratch state left
// over from a larger or differently-shaped earlier case would show up
// as a divergence. The inputs must come back untouched, which is what lets
// callers alias one series across many users.
func TestDifferentialEngineEquivalence(t *testing.T) {
	const cases = 250
	rng := rand.New(rand.NewSource(20180702)) // ICDCS'18 vintage
	var eng Engine
	var sales []InstanceRecord
	for i := 0; i < cases; i++ {
		c := sampleDiffCase(rng, i)
		t.Run(c.name, func(t *testing.T) {
			demand := append([]int(nil), c.demand...)
			newRes := append([]int(nil), c.newRes...)
			want, wantErr := runReference(c.demand, c.newRes, c.cfg, c.policy)
			got, gotErr := Run(c.demand, c.newRes, c.cfg, c.policy)
			tot, totErr := eng.Totals(c.demand, c.newRes, c.cfg, c.policy)
			assertErrorsIdentical(t, "Run", gotErr, wantErr)
			assertErrorsIdentical(t, "Totals", totErr, wantErr)
			if !reflect.DeepEqual(c.demand, demand) || !reflect.DeepEqual(c.newRes, newRes) {
				t.Fatal("an engine wrote to its input series")
			}
			if wantErr != nil {
				return
			}
			assertResultsIdentical(t, got, want)
			if wantTot := totalsOf(want); tot != wantTot {
				t.Fatalf("Totals differ:\n got %+v\nwant %+v", tot, wantTot)
			}
			sales = eng.AppendSales(sales[:0])
			assertSalesIdentical(t, sales, salesOf(want))
		})
	}
}

// TestDifferentialEngineErrors pins Run, Totals and the reference
// engine to reject invalid input identically (same error text), since
// they share validation. The reused Engine must also come through a
// rejected call unharmed.
func TestDifferentialEngineErrors(t *testing.T) {
	cfg := testConfig()
	badCases := []struct {
		name   string
		demand []int
		newRes []int
		cfg    Config
		policy SellingPolicy
	}{
		{"length", []int{1}, []int{0, 0}, cfg, KeepReserved{}},
		{"negative demand", []int{-4}, []int{0}, cfg, KeepReserved{}},
		{"negative res", []int{4}, []int{-1}, cfg, KeepReserved{}},
		{"nil policy", []int{1}, []int{0}, cfg, nil},
		{"bad cfg", []int{1}, []int{0}, Config{Instance: testInstance(), SellingDiscount: 2}, KeepReserved{}},
	}
	var eng Engine
	for _, c := range badCases {
		t.Run(c.name, func(t *testing.T) {
			_, wantErr := runReference(c.demand, c.newRes, c.cfg, c.policy)
			_, gotErr := Run(c.demand, c.newRes, c.cfg, c.policy)
			_, totErr := eng.Totals(c.demand, c.newRes, c.cfg, c.policy)
			if wantErr == nil {
				t.Fatal("reference engine accepted the bad input")
			}
			assertErrorsIdentical(t, "Run", gotErr, wantErr)
			assertErrorsIdentical(t, "Totals", totErr, wantErr)
		})
	}
	demand, newRes := []int{3, 1, 2}, []int{2, 0, 1}
	want, err := runReference(demand, newRes, cfg, KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Totals(demand, newRes, cfg, KeepReserved{}); err != nil || got != totalsOf(want) {
		t.Fatalf("Totals after rejected calls = %+v, %v; want %+v", got, err, totalsOf(want))
	}
}
