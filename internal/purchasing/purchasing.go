// Package purchasing implements the four reservation-behavior
// algorithms the paper uses to imitate how users acquire reserved
// instances before any selling happens (Section VI.A):
//
//   - AllReserved — reserve whenever demand exceeds active reservations;
//   - Random — reserve toward a random target at each hour;
//   - WangOnline — the deterministic online purchasing algorithm of
//     Wang et al., ICAC 2013 ("To Reserve or Not to Reserve"): a demand
//     level is reserved once its on-demand spend inside one reservation-
//     period window reaches the reservation break-even point;
//   - WangVariant — the same with a smaller break-even point.
//
// PlanReservations drives a policy over a demand trace and emits the
// n_t series the selling engine consumes; per the paper's pipeline,
// planning happens before (and independently of) selling.
package purchasing

import (
	"fmt"
	"math/rand"

	"rimarket/internal/pricing"
)

// Policy decides how many instances to newly reserve at each hour.
// PlanReservations calls Reserve exactly once per hour, in order, so
// implementations may keep internal running state.
type Policy interface {
	// Reserve returns the number of instances to reserve at hour t given
	// the hour's demand and the number of reservations currently active.
	// The returned count must be non-negative.
	Reserve(t, demand, active int) int
}

// PlanReservations replays demand through the policy and returns the
// per-hour new-reservation series n_t. Reservations are active for
// periodHours hours from the hour they are made; no selling occurs at
// this stage, matching the paper's dataset-preparation step.
func PlanReservations(demand []int, periodHours int, p Policy) ([]int, error) {
	if periodHours <= 0 {
		return nil, fmt.Errorf("purchasing: period %d must be positive", periodHours)
	}
	if p == nil {
		return nil, fmt.Errorf("purchasing: nil policy")
	}
	newRes := make([]int, len(demand))
	active := 0
	for t, d := range demand {
		if d < 0 {
			return nil, fmt.Errorf("purchasing: negative demand %d at hour %d", d, t)
		}
		// The reservations made one period ago expire now.
		if t >= periodHours {
			active -= newRes[t-periodHours]
		}
		n := p.Reserve(t, d, active)
		if n < 0 {
			return nil, fmt.Errorf("purchasing: policy returned negative count %d at hour %d", n, t)
		}
		newRes[t] = n
		active += n
	}
	return newRes, nil
}

// AllReserved reserves enough instances at every hour to cover all
// demand with reservations — the paper's stand-in for users whose
// demands are stable enough that they reserve everything.
type AllReserved struct{}

// Reserve implements Policy.
func (AllReserved) Reserve(_, demand, active int) int {
	if demand > active {
		return demand - active
	}
	return 0
}

// Random reserves toward a uniformly random target in [0, demand] at
// each hour — the paper's second behavior imitator.
// Construct with NewRandom so runs are reproducible from a seed.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random policy seeded for reproducibility.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Reserve implements Policy.
func (r *Random) Reserve(_, demand, active int) int {
	if demand <= 0 {
		return 0
	}
	target := r.rng.Intn(demand + 1)
	if target > active {
		return target - active
	}
	return 0
}

// WangOnline is the deterministic online purchasing algorithm of Wang
// et al. (ICAC 2013): demand is decomposed into unit levels (level j is
// occupied at hour t iff d_t >= j); an uncovered level pays on-demand,
// and once a level's on-demand hours inside a sliding window of one
// reservation period reach the break-even point
//
//	beta = R / (p * (1 - alpha))
//
// the level is covered with a new reservation. BreakEvenScale shrinks
// beta for the paper's fourth behavior imitator (WangVariant).
//
// Instance and BreakEvenScale are read once, at the first Reserve, and
// Instance must be a valid card (a positive period); a policy plans one
// demand series.
type WangOnline struct {
	// Instance supplies R, p and alpha.
	Instance pricing.InstanceType
	// BreakEvenScale multiplies the break-even point; 1 is the original
	// algorithm, values in (0, 1) reserve more eagerly. Zero means 1.
	BreakEvenScale float64

	started bool
	beta    float64 // break-even hours, resolved at the first Reserve
	period  int
	// levels[j] is level j's break-even count.
	levels []levelCount
	// window is the on-demand hours inside the sliding window, oldest
	// first, in a ring: window[(head+k) % len(window)] for k < n. The
	// levels that paid on-demand in one hour are a contiguous range,
	// so one entry per hour records every level's window at once. It
	// grows lazily, doubling when full, and never past one entry per
	// hour of the period.
	window  []spentHour
	head, n int
	// resExp is a FIFO of the policy's own reservations by expiry hour:
	// each Reserve appends at most one entry, t + period, so the hours
	// ascend and expiry only ever pops the front.
	resExp []pendingExpiry
	active int
}

// levelCount is one level's on-demand hours inside the window since
// the level was last reserved at: hours before since were cleared by
// that reservation and no longer count.
type levelCount struct {
	count, since int
}

// spentHour records that levels [lo, hi) paid on-demand at hour. A
// level is an instance of demand, so int32 holds any level index.
type spentHour struct {
	hour   int
	lo, hi int32
}

type pendingExpiry struct {
	hour  int
	count int
}

// NewWangOnline returns the ICAC'13 online purchasing policy.
func NewWangOnline(it pricing.InstanceType) *WangOnline {
	return &WangOnline{Instance: it, BreakEvenScale: 1}
}

// NewWangVariant returns the paper's fourth behavior imitator: the
// ICAC'13 algorithm with a smaller break-even point (half by default).
func NewWangVariant(it pricing.InstanceType) *WangOnline {
	return &WangOnline{Instance: it, BreakEvenScale: 0.5}
}

// breakEvenHours returns the number of on-demand hours after which
// reserving is cheaper, scaled by BreakEvenScale.
func (w *WangOnline) breakEvenHours() float64 {
	scale := w.BreakEvenScale
	if scale == 0 {
		scale = 1
	}
	it := &w.Instance
	return scale * it.Upfront / (it.OnDemandHourly * (1 - it.Alpha()))
}

// Reserve implements Policy. The active argument is ignored: the
// algorithm tracks its own coverage because its decisions depend on
// which demand levels its own reservations cover.
//
// The break-even counts are kept incrementally: an hour that leaves
// the window takes one off each level it counted for, and this hour
// adds one to each uncovered occupied level, so no level's window is
// ever rescanned.
func (w *WangOnline) Reserve(t, demand, _ int) int {
	if !w.started {
		w.beta, w.period, w.started = w.breakEvenHours(), w.Instance.PeriodHours, true
	}

	// Expire our own reservations.
	for len(w.resExp) > 0 && w.resExp[0].hour <= t {
		w.active -= w.resExp[0].count
		w.resExp = w.resExp[1:]
	}

	// Drop the hours that fell out of the window (t-period, t] from the
	// counts they still stand in.
	for w.n > 0 && w.window[w.head].hour <= t-w.period {
		h := w.window[w.head]
		for j := int(h.lo); j < int(h.hi); j++ {
			if lv := &w.levels[j]; h.hour >= lv.since {
				lv.count--
			}
		}
		w.head++
		if w.head == len(w.window) {
			w.head = 0
		}
		w.n--
	}

	// Grow level state to cover this hour's demand.
	for len(w.levels) < demand {
		w.levels = append(w.levels, levelCount{})
	}

	// Levels below active are served by our reservations; the rest pay
	// on-demand this hour. Each that reaches beta buys one reservation
	// and starts its count afresh.
	lo := w.active
	reserve := 0
	for j := lo; j < demand; j++ {
		lv := &w.levels[j]
		lv.count++
		if float64(lv.count) >= w.beta {
			reserve++
			lv.count, lv.since = 0, t+1
		}
	}
	if lo < demand {
		w.push(spentHour{hour: t, lo: int32(lo), hi: int32(demand)})
	}
	if reserve > 0 {
		w.active += reserve
		w.resExp = append(w.resExp, pendingExpiry{hour: t + w.period, count: reserve})
	}
	return reserve
}

// push appends h at the back of the window ring, doubling it when full.
// The window never holds more than one entry per hour of the period.
func (w *WangOnline) push(h spentHour) {
	if w.n == len(w.window) {
		grown := make([]spentHour, min(max(4, 2*len(w.window)), w.period))
		k := copy(grown, w.window[w.head:])
		copy(grown[k:], w.window[:w.head])
		w.window, w.head = grown, 0
	}
	i := w.head + w.n
	if i >= len(w.window) {
		i -= len(w.window)
	}
	w.window[i] = h
	w.n++
}
