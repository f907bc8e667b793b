package experiments

import (
	"context"
	"fmt"

	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

// SellEvent is one reservation put up for sale during a simulation.
type SellEvent struct {
	// Hour is the simulation hour the sale decision happened.
	Hour int
	// Seller names the selling user.
	Seller string
	// Instance is the reservation's price card.
	Instance pricing.InstanceType
	// RemainingHours is the unexpired period at the decision hour.
	RemainingHours int
}

// marketTally accumulates one instance type's session statistics.
type marketTally struct {
	listed, sold, expired int
	hoursToSale           int
	// demand counts buy orders; each one fills (sold) or falls
	// through to a fresh purchase (fresh).
	demand, fresh        int
	peakDepth            int
	depthSum             int64
	paid, proceeds, fees float64
	// split re-sums fee+proceeds per trade in the same order as paid;
	// paid == split bit-exactly because each trade recomposes exactly.
	split float64
}

// marketLoop is the hour loop every market session runs on: one
// OrderBook fed by one hour-sorted sell-event stream and drained by one
// buyer source. Each hour it steps the book (expiring and repricing
// listings), lists the hour's sell events under the declining
// schedule, lets the buyer source place the hour's orders, and samples
// each type's depth. It tallies every type's outcomes and feeds the
// obs market counters, so all sessions report through the same books.
type marketLoop struct {
	book     *marketplace.OrderBook
	discount float64
	m        *obs.Metrics
	hour     int
	names    []string       // traded types, in registration order
	index    map[string]int // type name -> position in names and tallies
	tallies  []marketTally
}

func newMarketLoop(ctx context.Context, fee, discount float64) (*marketLoop, error) {
	book, err := marketplace.NewOrderBook(fee)
	if err != nil {
		return nil, err
	}
	return &marketLoop{book: book, discount: discount, m: obs.FromContext(ctx), index: make(map[string]int)}, nil
}

// typeIndex returns the named type's tally index, registering the
// type on first sight.
func (l *marketLoop) typeIndex(name string) int {
	if i, ok := l.index[name]; ok {
		return i
	}
	l.index[name] = len(l.names)
	l.names = append(l.names, name)
	l.tallies = append(l.tallies, marketTally{})
	return len(l.names) - 1
}

// run drives the book through hours [0, horizon). events must be
// sorted by hour; buyers places each hour's orders through buy.
func (l *marketLoop) run(events []SellEvent, horizon int, buyers func(hour int) error) error {
	next := 0
	for l.hour = 0; l.hour < horizon; l.hour++ {
		if l.hour > 0 {
			for _, lst := range l.book.Step().Expired {
				l.tallies[l.index[lst.Instance.Name]].expired++
				if l.m != nil {
					l.m.MarketExpiries.Add(1)
				}
			}
		}
		for ; next < len(events) && events[next].Hour == l.hour; next++ {
			ev := events[next]
			if _, err := l.book.ListDeclining(ev.Seller, ev.Instance, ev.RemainingHours, l.discount); err != nil {
				return fmt.Errorf("experiments: listing %s's reservation at hour %d: %w", ev.Seller, l.hour, err)
			}
			l.tallies[l.typeIndex(ev.Instance.Name)].listed++
			if l.m != nil {
				l.m.MarketListings.Add(1)
			}
		}
		if err := buyers(l.hour); err != nil {
			return err
		}
		for i, name := range l.names {
			d := l.book.Depth(name)
			t := &l.tallies[i]
			t.depthSum += int64(d.Open)
			if d.Open > t.peakDepth {
				t.peakDepth = d.Open
			}
		}
	}
	return l.checkConservation()
}

// buy places one buy order for the type at tally index ti. The book's
// best listing fills it when take accepts that listing (a nil take
// accepts any); otherwise, or when the book is empty, the unit falls
// through to a fresh purchase.
func (l *marketLoop) buy(buyer string, ti int, take func(marketplace.DepthSnapshot) bool) error {
	t := &l.tallies[ti]
	t.demand++
	if l.m != nil {
		l.m.MarketBuyOrders.Add(1)
	}
	d := l.book.Depth(l.names[ti])
	if d.Open == 0 || (take != nil && !take(d)) {
		t.fresh++
		if l.m != nil {
			l.m.MarketFreshBuys.Add(1)
		}
		return nil
	}
	trades, err := l.book.Buy(buyer, l.names[ti], 1)
	if err != nil {
		return fmt.Errorf("experiments: buying %s at hour %d: %w", l.names[ti], l.hour, err)
	}
	tr := trades[0]
	wait := tr.Hour - tr.ListedAt
	t.sold++
	t.hoursToSale += wait
	t.paid += tr.PricePaid
	t.split += tr.Fee + tr.SellerProceeds
	t.proceeds += tr.SellerProceeds
	t.fees += tr.Fee
	if l.m != nil {
		l.m.MarketTrades.Add(1)
		l.m.MarketHoursToSale.Add(int64(wait))
	}
	return nil
}

// checkConservation asserts the session's money invariants. Per type,
// fee+proceeds recomposes the price paid bit-exactly per trade, so the
// trade-order sums must be equal. Session-wide, re-summing the book's
// ledger must reproduce the paid total bit-exactly, and the book's
// running totals must match their ledger re-sums (both accumulate per
// trade in the same order).
func (l *marketLoop) checkConservation() error {
	for i, t := range l.tallies {
		if t.paid != t.split {
			return fmt.Errorf("experiments: market session conservation broken for %s: buyers paid %v, sellers+fees received %v",
				l.names[i], t.paid, t.split)
		}
	}
	var paid, split, proceeds, fees float64
	for _, tr := range l.book.Trades() {
		paid += tr.PricePaid
		split += tr.Fee + tr.SellerProceeds
		proceeds += tr.SellerProceeds
		fees += tr.Fee
	}
	gotPaid, gotProceeds, gotFees := l.book.Totals()
	if paid != split || gotPaid != paid || gotProceeds != proceeds || gotFees != fees {
		return fmt.Errorf("experiments: market session conservation broken: ledger re-sums (%v, %v, %v, %v) vs book totals (%v, %v, %v)",
			paid, split, proceeds, fees, gotPaid, gotProceeds, gotFees)
	}
	return nil
}
