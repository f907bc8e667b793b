package simulate

import (
	"fmt"
	"sort"
)

// instState is the engine's mutable per-reservation state, stored in
// one contiguous slab per run (see Engine) so a whole-cohort experiment
// makes O(users) allocations rather than O(users·instances).
type instState struct {
	rec    InstanceRecord
	sold   bool
	expiry int   // Start + T
	ckAges []int // decision ages, strictly increasing
	nextCk int   // index of the next pending decision age
}

// checkpointAges resolves the policy's decision ages for the period
// into a fresh, non-nil slice (see appendCheckpointAges).
func checkpointAges(policy SellingPolicy, period int) []int {
	return appendCheckpointAges([]int{}, policy, period)
}

// appendCheckpointAges resolves the policy's decision ages for the
// period into buf[:0], honoring the optional MultiCheckpointPolicy
// extension, and reuses buf's backing array when it is large enough.
// The returned slice is sorted, deduplicated and restricted to
// (0, period).
func appendCheckpointAges(buf []int, policy SellingPolicy, period int) []int {
	buf = buf[:0]
	mp, ok := policy.(MultiCheckpointPolicy)
	if !ok {
		if a := policy.CheckpointAge(period); a > 0 && a < period {
			buf = append(buf, a)
		}
		return buf
	}
	raw := mp.CheckpointAges(period)
	if cap(buf) < len(raw) {
		buf = make([]int, 0, len(raw))
	}
	for _, a := range raw {
		if a > 0 && a < period {
			buf = append(buf, a)
		}
	}
	sort.Ints(buf)
	out := buf[:0]
	for i, a := range buf {
		if i == 0 || a != buf[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// validateRun is the shared input validation of Run, Engine.Totals and
// the test-only reference engine; all must reject identical inputs
// identically.
func validateRun(demand, newRes []int, cfg Config, policy SellingPolicy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(demand) != len(newRes) {
		return fmt.Errorf("%w: %d demand hours, %d reservation hours",
			ErrLengthMismatch, len(demand), len(newRes))
	}
	for t, d := range demand {
		if d < 0 {
			return fmt.Errorf("simulate: negative demand %d at hour %d", d, t)
		}
		if newRes[t] < 0 {
			return fmt.Errorf("simulate: negative reservation count %d at hour %d", newRes[t], t)
		}
	}
	if policy == nil {
		return fmt.Errorf("simulate: nil selling policy")
	}
	return nil
}

// Totals is the lean outcome of Engine.Totals: the aggregates a cohort
// sweep consumes, without per-hour or per-instance records.
type Totals struct {
	// Cost is the run's cost decomposition, bit-identical to the Cost
	// of the corresponding Run.
	Cost CostBreakdown
	// Sold is the number of instances sold (Result.SoldCount).
	Sold int
	// IdleHours sums, over all hours, the active reserved instances
	// that served no demand — the Keep-Reserved baseline's idle-hour
	// statistic.
	IdleHours int
}

// Engine is the replay loop's reusable scratch: the instance slab, the
// checkpoint event schedule, the active window and the checkpoint-age
// buffers. Run uses a fresh Engine per call; a caller replaying many
// users keeps one Engine per goroutine and calls Totals, which reuses
// the scratch and, once it has grown to the largest user seen, replays
// without allocating. The zero value is ready to use. An Engine is not
// safe for concurrent use.
type Engine struct {
	batchOff []int       // batchOff[t]..batchOff[t+1] is hour t's batch in slab
	slab     []instState // every reserved instance, in reservation order
	ages     []int       // the policy's shared checkpoint ages
	soloAges []int       // backing for per-instance single-age slices
	evOff    []int       // evOff[t]..evOff[t+1] indexes hour t's events
	events   []int       // slab indices due at a checkpoint, bucketed by hour
	active   []int       // live instances' slab indices, working-sequence order
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run replays the demand series against the reservation series under
// the given selling policy and returns the full accounting.
//
// Per hour t the engine, in order:
//  1. activates the newRes[t] instances reserved at t (active from t);
//  2. consults the selling policy for every unsold instance whose age
//     equals one of its pending checkpoint ages (sold instances stop
//     serving and stop incurring the reserved hourly fee from t on, and
//     earn a * R * remaining/T, less the market fee);
//  3. serves demand[t] with active instances in the paper's working
//     sequence — least remaining period first, higher batch index first
//     within a batch — and buys o_t = max(0, d_t - r_t) on-demand
//     instances for the overflow;
//  4. books C_t per Eq. (1).
//
// Policies implementing MultiCheckpointPolicy are consulted at each of
// their ages until they sell; policies implementing PerInstancePolicy
// assign every instance its own age at reservation time. ShouldSell is
// called in exactly the working-sequence order of the instances due at
// each hour; InstanceCheckpointAge is called once per instance in
// reservation order (start ascending, batch index ascending) before the
// replay begins — the interface requires it to be deterministic in
// (start, batchIndex), so the hoisting is unobservable.
//
// The engine exploits two structural invariants to stay out of the
// per-hour hot path's way. First, because PeriodHours is constant, the
// active list stays in working-sequence order by construction: expiring
// instances are always a prefix (head-trim) and each hour's new batch
// always belongs at the tail (appended in descending batch index), so
// no per-hour sort is needed. Second, every checkpoint hour is known at
// activation time, so consultations are bucketed into a per-hour event
// schedule up front instead of scanning the active list every hour.
// The whole replay makes O(1) heap allocations: instance state, hour
// records, checkpoint events and (optionally) schedules live in
// pre-sized slabs.
func Run(demand, newRes []int, cfg Config, policy SellingPolicy) (Result, error) {
	if err := validateRun(demand, newRes, cfg, policy); err != nil {
		return Result{}, err
	}
	var e Engine
	res := Result{Hours: make([]HourRecord, len(demand))}
	res.Cost = e.replay(demand, newRes, cfg, policy, res.Hours).Cost
	res.Instances = make([]InstanceRecord, len(e.slab))
	for j := range e.slab {
		res.Instances[j] = e.slab[j].rec
	}
	return res, nil
}

// Totals replays one user exactly as Run does — same validation, same
// decisions, bit-identical Cost — but returns only the totals, so no
// per-hour or per-instance records are built. Config.RecordSchedules is
// ignored. The inputs are only read, so callers may alias one backing
// series across many users.
func (e *Engine) Totals(demand, newRes []int, cfg Config, policy SellingPolicy) (Totals, error) {
	if err := validateRun(demand, newRes, cfg, policy); err != nil {
		return Totals{}, err
	}
	cfg.RecordSchedules = false // Totals keeps no per-instance records
	return e.replay(demand, newRes, cfg, policy, nil), nil
}

// AppendSales appends the records of the instances the engine's last
// replay sold to dst, in reservation order, and returns the extended
// slice. After a successful Totals they are exactly the Instances with
// SoldAt >= 0 that Run returns for the same inputs, with a nil Schedule
// (Totals records none). A rejected call replays nothing, so it leaves
// the previous replay's sales in place. Appending into a buffer with
// room allocates nothing.
func (e *Engine) AppendSales(dst []InstanceRecord) []InstanceRecord {
	for j := range e.slab {
		if e.slab[j].sold {
			dst = append(dst, e.slab[j].rec)
		}
	}
	return dst
}

// layout fills the engine's scratch for a validated run. The instance
// slab holds every reserved instance in reservation order (start
// ascending, batch index ascending), hour t's batch at
// batchOff[t]..batchOff[t+1], each with its decision ages resolved and,
// with schedules set, a fresh busy-schedule slice. The returned
// checkpoint event schedule lists, for each hour t, in
// events[evOff[t]:evOff[t+1]], the slab indices of the instances with a
// decision age falling on t, in working-sequence order (start
// ascending, batch index descending — the order the reference engine
// consults them in); both are nil when no instance has a decision age.
func (e *Engine) layout(newRes []int, policy SellingPolicy, period int, schedules bool) (evOff, events []int) {
	horizon := len(newRes)
	e.ages = appendCheckpointAges(e.ages, policy, period)
	sharedAges := e.ages
	perInst, isPerInstance := policy.(PerInstancePolicy)

	total := 0
	batchOff := grow(e.batchOff, horizon+1)
	e.batchOff = batchOff
	for t, n := range newRes {
		batchOff[t] = total
		total += n
	}
	batchOff[horizon] = total

	slab := grow(e.slab, total)
	e.slab = slab
	var soloAges []int // backing for per-instance single-age slices
	if isPerInstance {
		soloAges = grow(e.soloAges, total)
		e.soloAges = soloAges
	}
	var schedSlab []bool
	if schedules {
		schedSlab = make([]bool, total*period)
	}
	for t := 0; t < horizon; t++ {
		for i := 1; i <= newRes[t]; i++ {
			j := batchOff[t] + i - 1
			in := &slab[j]
			*in = instState{
				rec:    InstanceRecord{Start: t, BatchIndex: i, SoldAt: -1, WorkedAtCheckpoint: -1},
				expiry: t + period,
			}
			if isPerInstance {
				if age := perInst.InstanceCheckpointAge(t, i, period); age > 0 && age < period {
					soloAges[j] = age
					in.ckAges = soloAges[j : j+1 : j+1]
				}
			} else {
				in.ckAges = sharedAges
			}
			if schedules {
				in.rec.Schedule = schedSlab[j*period : (j+1)*period : (j+1)*period]
			}
		}
	}
	if total == 0 || (len(sharedAges) == 0 && !isPerInstance) {
		return nil, nil
	}

	// The event schedule is built with one counting pass and one fill
	// pass over two shared arrays.
	evOff = grow(e.evOff, horizon+2)
	e.evOff = evOff
	clear(evOff)
	for j := range slab {
		in := &slab[j]
		for _, a := range in.ckAges {
			if h := in.rec.Start + a; h < horizon {
				evOff[h+2]++
			}
		}
	}
	for t := 2; t <= horizon+1; t++ {
		evOff[t] += evOff[t-1]
	}
	events = grow(e.events, evOff[horizon+1])
	e.events = events
	// Fill in (start asc, batch index desc) order so each bucket comes
	// out in working-sequence order; evOff[t+1] doubles as the running
	// fill cursor for hour t and ends at its final value.
	for t := 0; t < horizon; t++ {
		for j := batchOff[t+1] - 1; j >= batchOff[t]; j-- {
			for _, a := range slab[j].ckAges {
				if h := t + a; h < horizon {
					events[evOff[h+1]] = j
					evOff[h+1]++
				}
			}
		}
	}
	return evOff, events
}

// window returns the engine's active-window scratch, empty with room
// for every instance in the slab, so the replay's appends never
// reallocate.
//
// It is kept out of line on purpose: a call just before the hour loop
// lets the compiler keep the loop's indices in registers. Inlined, they
// spill to the stack and Run measured 15–20% slower on the 1-year
// engine benchmark (amd64, go1.24).
//
//go:noinline
func (e *Engine) window() []int {
	e.active = grow(e.active, len(e.slab))
	return e.active[:0]
}

// replay is the engine loop behind Run and Totals over validated
// inputs. With hours non-nil it records one HourRecord per hour, and
// with cfg.RecordSchedules set every instance's busy schedule; either
// way the instance records are left in e.slab.
func (e *Engine) replay(demand, newRes []int, cfg Config, policy SellingPolicy, hours []HourRecord) Totals {
	it := cfg.Instance
	period := it.PeriodHours
	alphaHourly := it.ReservedHourly
	saleKeep := 1 - cfg.MarketFee
	horizon := len(demand)
	evOff, events := e.layout(newRes, policy, period, cfg.RecordSchedules)
	slab, batchOff := e.slab, e.batchOff
	// active holds the currently active (unexpired, unsold) instances'
	// slab indices in working-sequence order; the window active[head:]
	// is the live list. Expiry only ever removes a prefix (constant
	// period ⇒ expiry order = start order), so head advances instead of
	// reslicing; sales splice the window in place on the rare hours a
	// sale happens.
	active := e.window()
	head := 0
	var tot Totals

	for t := 0; t < horizon; t++ {
		// Drop expired instances: always a prefix of the window.
		for head < len(active) && slab[active[head]].expiry <= t {
			head++
		}

		// 1. Activate this hour's new reservations. Everything already
		// active started earlier (less remaining period), and within the
		// batch the higher index works first, so the batch is appended
		// at the tail in descending index order.
		for j := batchOff[t+1] - 1; j >= batchOff[t]; j-- {
			active = append(active, j)
		}

		// 2. Selling checkpoints: only the instances scheduled for hour t.
		var soldNow int
		var income float64
		if events != nil && evOff[t] < evOff[t+1] {
			for _, j := range events[evOff[t]:evOff[t+1]] {
				in := &slab[j]
				if in.sold || in.nextCk >= len(in.ckAges) || t-in.rec.Start != in.ckAges[in.nextCk] {
					continue
				}
				in.nextCk++
				in.rec.WorkedAtCheckpoint = in.rec.Worked
				ck := Checkpoint{
					Hour:      t,
					Start:     in.rec.Start,
					Age:       t - in.rec.Start,
					Worked:    in.rec.Worked,
					Remaining: in.expiry - t,
				}
				if policy.ShouldSell(ck) {
					in.sold = true
					in.rec.SoldAt = t
					soldNow++
					remFrac := float64(in.expiry-t) / float64(period)
					income += cfg.SellingDiscount * remFrac * it.Upfront * saleKeep
				}
			}
			if soldNow > 0 {
				tot.Sold += soldNow
				w := active[head:]
				k := 0
				for _, j := range w {
					if !slab[j].sold {
						w[k] = j
						k++
					}
				}
				active = active[:head+k]
			}
		}

		// 3. Working sequence: first d_t active instances serve demand.
		win := active[head:]
		d := demand[t]
		busy := d
		if busy > len(win) {
			busy = len(win)
		}
		for _, j := range win[:busy] {
			in := &slab[j]
			in.rec.Worked++
			if cfg.RecordSchedules {
				in.rec.Schedule[t-in.rec.Start] = true
			}
		}
		onDemand := d - len(win)
		if onDemand < 0 {
			onDemand = 0
		}

		// 4. Book C_t per Eq. (1).
		if hours != nil {
			hours[t] = HourRecord{
				Demand:    d,
				NewlyRes:  newRes[t],
				ActiveRes: len(win),
				OnDemand:  onDemand,
				Sold:      soldNow,
			}
		}
		tot.Cost.OnDemand += float64(onDemand) * it.OnDemandHourly
		tot.Cost.Upfront += float64(newRes[t]) * it.Upfront
		tot.Cost.ReservedHourly += float64(len(win)) * alphaHourly
		tot.Cost.SaleIncome += income
	}

	// Idle hours: each instance was active from its start until it
	// expired, was sold or the horizon ended, and served in Worked of
	// those hours.
	for j := range slab {
		in := &slab[j]
		end := min(in.expiry, horizon)
		if in.sold {
			end = in.rec.SoldAt
		}
		tot.IdleHours += end - in.rec.Start - in.rec.Worked
	}
	cfg.Metrics.RecordRun(horizon, len(slab), tot.Sold)
	return tot
}

// KeepReserved is the paper's Keep-Reserved benchmark: never sell.
// It is defined here (rather than in package core) because the engine
// itself uses it as the neutral default in helpers.
type KeepReserved struct{}

// CheckpointAge implements SellingPolicy: no checkpoint.
func (KeepReserved) CheckpointAge(int) int { return -1 }

// ShouldSell implements SellingPolicy.
func (KeepReserved) ShouldSell(Checkpoint) bool { return false }
