package core

import (
	"fmt"
	"math"

	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
)

// This file implements the paper's stated future work (Section VII): a
// randomized online selling algorithm that decides at an arbitrary time
// spot of the reservation period rather than at a fixed one. Each
// reserved instance draws its own checkpoint fraction k from a
// distribution; at age k*T the instance is sold iff its working time is
// below the break-even beta_k. The draw is a deterministic hash of
// (seed, reservation hour, batch index), so runs remain reproducible.

// FractionDist maps a uniform variate u in [0, 1) to a checkpoint
// fraction in (0, 1).
type FractionDist interface {
	// Sample returns the checkpoint fraction for uniform input u.
	Sample(u float64) float64
	// String describes the distribution for reports.
	String() string
}

// UniformFractions draws the checkpoint uniformly from [Lo, Hi].
type UniformFractions struct {
	// Lo and Hi bound the fraction, 0 < Lo <= Hi < 1.
	Lo, Hi float64
}

// Sample implements FractionDist.
func (d UniformFractions) Sample(u float64) float64 {
	return d.Lo + u*(d.Hi-d.Lo)
}

// String implements FractionDist.
func (d UniformFractions) String() string {
	return fmt.Sprintf("uniform[%.3g, %.3g]", d.Lo, d.Hi)
}

// Validate reports whether the bounds are usable.
func (d UniformFractions) Validate() error {
	if d.Lo <= 0 || d.Hi >= 1 || d.Lo > d.Hi {
		return fmt.Errorf("core: uniform fraction bounds [%v, %v] outside 0 < lo <= hi < 1", d.Lo, d.Hi)
	}
	return nil
}

// ExponentialFractions draws the checkpoint with density
// e^x / (e - 1) on (0, 1) — the classic ski-rental randomization
// (Karlin et al.), which weights later checkpoints more.
type ExponentialFractions struct{}

// Sample implements FractionDist via the inverse CDF
// x = ln(1 + u*(e-1)).
func (ExponentialFractions) Sample(u float64) float64 {
	x := math.Log(1 + u*(math.E-1))
	// Clamp away from the degenerate endpoints.
	if x <= 0 {
		x = 1e-9
	}
	if x >= 1 {
		x = 1 - 1e-9
	}
	return x
}

// String implements FractionDist.
func (ExponentialFractions) String() string { return "exp(e^x/(e-1))" }

// DiscreteFractions draws uniformly from a fixed set of fractions,
// e.g. the paper's three spots {1/4, 1/2, 3/4}.
type DiscreteFractions struct {
	// Fractions is the support, each in (0, 1).
	Fractions []float64
}

// Sample implements FractionDist.
func (d DiscreteFractions) Sample(u float64) float64 {
	idx := int(u * float64(len(d.Fractions)))
	if idx >= len(d.Fractions) {
		idx = len(d.Fractions) - 1
	}
	return d.Fractions[idx]
}

// String implements FractionDist.
func (d DiscreteFractions) String() string {
	return fmt.Sprintf("discrete%v", d.Fractions)
}

// Validate reports whether the support is usable.
func (d DiscreteFractions) Validate() error {
	if len(d.Fractions) == 0 {
		return fmt.Errorf("core: discrete fraction set is empty")
	}
	for _, f := range d.Fractions {
		if f <= 0 || f >= 1 {
			return fmt.Errorf("core: discrete fraction %v outside (0, 1)", f)
		}
	}
	return nil
}

// PaperFractions is the support of the paper's three algorithms.
func PaperFractions() DiscreteFractions {
	return DiscreteFractions{Fractions: []float64{FractionT4, FractionT2, Fraction3T4}}
}

// Randomized is the randomized online selling algorithm A_{rand}: each
// instance gets an independent checkpoint fraction drawn from Dist, and
// the threshold rule (working time < beta_k) is applied at that
// fraction. It implements simulate.PerInstancePolicy.
type Randomized struct {
	instance pricing.InstanceType
	discount float64
	dist     FractionDist
	seed     uint64
}

var _ simulate.PerInstancePolicy = Randomized{}

// NewRandomized builds the randomized policy. The seed fixes every
// per-instance draw, making runs reproducible.
func NewRandomized(it pricing.InstanceType, sellingDiscount float64, dist FractionDist, seed int64) (Randomized, error) {
	if err := it.Validate(); err != nil {
		return Randomized{}, err
	}
	if sellingDiscount < 0 || sellingDiscount > 1 {
		return Randomized{}, fmt.Errorf("core: selling discount %v outside [0, 1]", sellingDiscount)
	}
	if dist == nil {
		return Randomized{}, fmt.Errorf("core: nil fraction distribution")
	}
	if v, ok := dist.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return Randomized{}, err
		}
	}
	return Randomized{instance: it, discount: sellingDiscount, dist: dist, seed: uint64(seed)}, nil
}

// Dist returns the policy's fraction distribution.
func (p Randomized) Dist() FractionDist { return p.dist }

// Instance returns the price card the policy was built for.
func (p Randomized) Instance() pricing.InstanceType { return p.instance }

// Discount returns the selling discount a the policy was built with.
func (p Randomized) Discount() float64 { return p.discount }

// fractionFor derives the instance's checkpoint fraction from a
// deterministic hash of (seed, start, batchIndex).
func (p Randomized) fractionFor(start, batchIndex int) float64 {
	u := UniformHash(p.seed, uint64(start), uint64(batchIndex))
	return p.dist.Sample(u)
}

// CheckpointAge implements simulate.SellingPolicy. The engine uses
// InstanceCheckpointAge instead, but a representative age (the median
// draw) is returned for callers that inspect the policy generically.
func (p Randomized) CheckpointAge(periodHours int) int {
	return int(p.dist.Sample(0.5)*float64(periodHours) + 0.5)
}

// InstanceCheckpointAge implements simulate.PerInstancePolicy.
func (p Randomized) InstanceCheckpointAge(start, batchIndex, periodHours int) int {
	age := int(p.fractionFor(start, batchIndex)*float64(periodHours) + 0.5)
	if age < 1 {
		age = 1
	}
	if age >= periodHours {
		age = periodHours - 1
	}
	return age
}

// ShouldSell implements simulate.SellingPolicy: the threshold rule at
// the instance's own fraction, recovered from the checkpoint's age.
func (p Randomized) ShouldSell(ck simulate.Checkpoint) bool {
	period := p.instance.PeriodHours
	k := float64(ck.Age) / float64(period)
	beta := p.instance.BreakEvenHours(k, p.discount)
	return float64(ck.Worked) < beta
}

// UniformHash maps words to a uniform float64 in [0, 1) using
// splitmix64 finalization — stable across runs and platforms. It is
// the repository's one seeded draw: randomized checkpoint fractions
// and the market session's buyer arrivals both come from it.
func UniformHash(words ...uint64) float64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, w := range words {
		h ^= w + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitmix64(h)
	}
	return float64(h>>11) / float64(1<<53)
}

func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MultiThreshold revisits the sell-or-keep decision at several
// checkpoint fractions: an instance kept at T/4 is re-examined at T/2
// and again at 3T/4, each time against that fraction's own break-even.
// It subsumes the paper's three algorithms as the natural "portfolio"
// of checkpoints and implements simulate.MultiCheckpointPolicy.
type MultiThreshold struct {
	instance  pricing.InstanceType
	discount  float64
	fractions []float64
}

var _ simulate.MultiCheckpointPolicy = MultiThreshold{}

// NewMultiThreshold builds the multi-checkpoint policy from strictly
// increasing fractions in (0, 1).
func NewMultiThreshold(it pricing.InstanceType, sellingDiscount float64, fractions []float64) (MultiThreshold, error) {
	if err := it.Validate(); err != nil {
		return MultiThreshold{}, err
	}
	if sellingDiscount < 0 || sellingDiscount > 1 {
		return MultiThreshold{}, fmt.Errorf("core: selling discount %v outside [0, 1]", sellingDiscount)
	}
	if len(fractions) == 0 {
		return MultiThreshold{}, fmt.Errorf("core: no checkpoint fractions")
	}
	for i, f := range fractions {
		if f <= 0 || f >= 1 {
			return MultiThreshold{}, fmt.Errorf("core: checkpoint fraction %v outside (0, 1)", f)
		}
		if i > 0 && f <= fractions[i-1] {
			return MultiThreshold{}, fmt.Errorf("core: checkpoint fractions not strictly increasing at %v", f)
		}
	}
	return MultiThreshold{
		instance:  it,
		discount:  sellingDiscount,
		fractions: append([]float64(nil), fractions...),
	}, nil
}

// NewPaperMultiThreshold builds the multi-checkpoint policy over the
// paper's three spots T/4, T/2, 3T/4.
func NewPaperMultiThreshold(it pricing.InstanceType, sellingDiscount float64) (MultiThreshold, error) {
	return NewMultiThreshold(it, sellingDiscount, []float64{FractionT4, FractionT2, Fraction3T4})
}

// CheckpointAge implements simulate.SellingPolicy (first checkpoint).
func (p MultiThreshold) CheckpointAge(periodHours int) int {
	return int(p.fractions[0]*float64(periodHours) + 0.5)
}

// CheckpointAges implements simulate.MultiCheckpointPolicy.
func (p MultiThreshold) CheckpointAges(periodHours int) []int {
	ages := make([]int, 0, len(p.fractions))
	for _, f := range p.fractions {
		ages = append(ages, int(f*float64(periodHours)+0.5))
	}
	return ages
}

// ShouldSell implements simulate.SellingPolicy: the threshold rule at
// whichever checkpoint is being consulted.
func (p MultiThreshold) ShouldSell(ck simulate.Checkpoint) bool {
	k := float64(ck.Age) / float64(p.instance.PeriodHours)
	beta := p.instance.BreakEvenHours(k, p.discount)
	return float64(ck.Worked) < beta
}
