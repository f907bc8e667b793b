package marketplace

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"rimarket/internal/pricing"
)

func mustBook(t *testing.T, fee float64) *OrderBook {
	t.Helper()
	b, err := NewOrderBook(fee)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewOrderBookValidatesFee(t *testing.T) {
	for _, fee := range []float64{-0.1, 1, 1.5} {
		if _, err := NewOrderBook(fee); err == nil {
			t.Errorf("fee %v accepted", fee)
		}
	}
	if _, err := NewOrderBook(AmazonFee); err != nil {
		t.Fatal(err)
	}
}

func TestOrderBookListValidation(t *testing.T) {
	b := mustBook(t, AmazonFee)
	it := yearCard()
	sched := PriceSchedule{{Term: 6, Price: 300}}
	rem := 6 * HoursPerMonth
	if _, err := b.List("", it, rem, sched); err == nil {
		t.Error("empty seller accepted")
	}
	if _, err := b.List("s", it, 0, sched); err == nil {
		t.Error("zero remaining accepted")
	}
	if _, err := b.List("s", it, it.PeriodHours, sched); err == nil {
		t.Error("full period accepted")
	}
	if _, err := b.List("s", it, rem, PriceSchedule{}); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := b.List("s", it, rem, sched); err != nil {
		t.Fatalf("valid listing rejected: %v", err)
	}
}

func TestOrderBookPriorityAndTies(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	rem := 6 * HoursPerMonth
	cheap := PriceSchedule{{Term: 6, Price: 200}}
	dear := PriceSchedule{{Term: 6, Price: 300}}
	idDear, _ := b.List("dear", it, rem, dear)
	idCheapA, _ := b.List("cheap-a", it, rem, cheap)
	idCheapB, _ := b.List("cheap-b", it, rem, cheap)

	trades, err := b.Buy("buyer", it.Name, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 3 {
		t.Fatalf("filled %d, want 3", len(trades))
	}
	// Cheapest first; the equal-ask pair fills in listing order.
	if trades[0].ListingID != idCheapA || trades[1].ListingID != idCheapB || trades[2].ListingID != idDear {
		t.Errorf("fill order %d,%d,%d, want %d,%d,%d",
			trades[0].ListingID, trades[1].ListingID, trades[2].ListingID, idCheapA, idCheapB, idDear)
	}
}

// TestOrderBookScheduleCrossing pins the priority rule under schedule
// crossings: a listing that starts more expensive but whose schedule
// steps below a rival's at the next month boundary overtakes it there,
// deterministically.
func TestOrderBookScheduleCrossing(t *testing.T) {
	it := yearCard()
	rem := 6 * HoursPerMonth
	flat := PriceSchedule{{Term: 6, Price: 300}}
	crossing := PriceSchedule{{Term: 6, Price: 310}, {Term: 5, Price: 100}}

	// Before the boundary: the flat listing is cheaper.
	b := mustBook(t, 0)
	idFlat, _ := b.List("flat", it, rem, flat)
	b.List("crossing", it, rem, crossing)
	trades, err := b.Buy("buyer", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trades[0].ListingID != idFlat || trades[0].PricePaid != 300 {
		t.Fatalf("pre-crossing fill = listing %d at %v, want %d at 300", trades[0].ListingID, trades[0].PricePaid, idFlat)
	}

	// One month later the crossing schedule has stepped to 100.
	b = mustBook(t, 0)
	b.List("flat", it, rem, flat)
	idCrossing, _ := b.List("crossing", it, rem, crossing)
	for h := 0; h < HoursPerMonth; h++ {
		b.Step()
	}
	if d := b.Depth(it.Name); d.BestAsk != 100 {
		t.Fatalf("best ask after crossing = %v, want 100", d.BestAsk)
	}
	trades, err = b.Buy("buyer", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trades[0].ListingID != idCrossing || trades[0].EffectiveAsk != 100 {
		t.Fatalf("post-crossing fill = listing %d at ask %v, want %d at 100", trades[0].ListingID, trades[0].EffectiveAsk, idCrossing)
	}
}

func TestOrderBookExpiry(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	id, err := b.List("s", it, 5, PriceSchedule{{Term: 1, Price: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 4; h++ {
		if res := b.Step(); len(res.Expired) != 0 {
			t.Fatalf("hour %d: premature expiry", h)
		}
	}
	res := b.Step()
	if len(res.Expired) != 1 || res.Expired[0].ID != id {
		t.Fatalf("hour 5: expired %v, want listing %d", res.Expired, id)
	}
	if res.Expired[0].RemainingAt(res.Hour) != 0 {
		t.Errorf("expiry fired with %d hours remaining", res.Expired[0].RemainingAt(res.Hour))
	}
	if b.OpenCount() != 0 || b.ExpiredCount() != 1 || b.TypeCount() != 0 {
		t.Errorf("post-expiry book: open %d, expired %d, types %d", b.OpenCount(), b.ExpiredCount(), b.TypeCount())
	}
	if _, err := b.Buy("buyer", it.Name, 1); !errors.Is(err, ErrNoListings) {
		t.Errorf("buy after expiry: %v, want ErrNoListings", err)
	}
}

func TestOrderBookCancel(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	id, _ := b.List("s", it, 6*HoursPerMonth, PriceSchedule{{Term: 6, Price: 300}})
	if err := b.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err == nil {
		t.Error("double cancel accepted")
	}
	if b.OpenCount() != 0 || b.CancelledCount() != 1 || b.TypeCount() != 0 {
		t.Errorf("post-cancel book: open %d, cancelled %d, types %d", b.OpenCount(), b.CancelledCount(), b.TypeCount())
	}
	// A cancelled listing's stale expiry bucket entry is skipped.
	for h := 0; h <= 6*HoursPerMonth; h++ {
		if res := b.Step(); len(res.Expired) != 0 {
			t.Fatalf("cancelled listing expired at hour %d", res.Hour)
		}
	}
}

// TestOrderBookCapClamp pins the execution rule: within a term the cap
// keeps shrinking while the scheduled ask is flat, so a fill near
// expiry pays the cap, not the ask.
func TestOrderBookCapClamp(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	rem := HoursPerMonth // final month: cap 100 at the start
	cap0 := ProratedCap(it, rem)
	sched := PriceSchedule{{Term: 1, Price: cap0}}
	if _, err := b.List("s", it, rem, sched); err != nil {
		t.Fatal(err)
	}
	steps := HoursPerMonth / 2
	for h := 0; h < steps; h++ {
		b.Step()
	}
	trades, err := b.Buy("buyer", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trades[0]
	wantCap := ProratedCap(it, rem-steps)
	if tr.EffectiveAsk != cap0 {
		t.Errorf("effective ask %v, want the scheduled %v", tr.EffectiveAsk, cap0)
	}
	if tr.PricePaid != wantCap {
		t.Errorf("price paid %v, want clamped cap %v", tr.PricePaid, wantCap)
	}
	if tr.RemainingHours != rem-steps {
		t.Errorf("remaining at fill %d, want %d", tr.RemainingHours, rem-steps)
	}
}

func TestOrderBookBuyErrorsAndPartialFill(t *testing.T) {
	b := mustBook(t, AmazonFee)
	it := yearCard()
	b.List("s", it, 6*HoursPerMonth, PriceSchedule{{Term: 6, Price: 300}})
	if _, err := b.Buy("", it.Name, 1); err == nil {
		t.Error("empty buyer accepted")
	}
	if _, err := b.Buy("b", it.Name, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := b.Buy("b", "no-such-type", 1); !errors.Is(err, ErrNoListings) {
		t.Error("unknown type did not return ErrNoListings")
	}
	trades, err := b.Buy("b", it.Name, 5)
	if err != nil || len(trades) != 1 {
		t.Fatalf("partial fill = (%v, %v), want one trade", trades, err)
	}
}

func TestOrderBookDepthAndDrain(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	b.List("s1", it, 6*HoursPerMonth, PriceSchedule{{Term: 6, Price: 300}})
	b.List("s2", it, 5*HoursPerMonth, PriceSchedule{{Term: 5, Price: 200}})
	d := b.Depth(it.Name)
	if d.Open != 2 || d.BestAsk != 200 || d.BestRemaining != 5*HoursPerMonth {
		t.Errorf("depth %+v", d)
	}
	if d := b.Depth("empty"); d.Open != 0 || d.BestAsk != 0 {
		t.Errorf("empty depth %+v", d)
	}
	open := b.OpenBook(it.Name)
	if len(open) != 2 || open[0].Seller != "s2" || open[1].Seller != "s1" {
		t.Errorf("open book order %v", open)
	}
	if _, err := b.Buy("b", it.Name, 2); err != nil {
		t.Fatal(err)
	}
	if got := b.DrainTrades(); len(got) != 2 {
		t.Fatalf("drained %d trades, want 2", len(got))
	}
	if got := b.DrainTrades(); len(got) != 0 {
		t.Fatalf("second drain returned %d trades", len(got))
	}
	paid, proceeds, fees := b.Totals()
	if paid != 500 || proceeds != 500 || fees != 0 {
		t.Errorf("totals after drain = %v/%v/%v, want 500/500/0", paid, proceeds, fees)
	}
}

// TestMarketBookMapShrinks is the regression test for per-type map
// growth: Buy, Cancel and Step-driven expiry must delete drained
// per-type books, so a long-lived market over many instance types does
// not retain one empty book per type forever.
func TestMarketBookMapShrinks(t *testing.T) {
	b := mustBook(t, AmazonFee)
	card := func(i int) pricing.InstanceType {
		it := yearCard()
		it.Name = it.Name + string(rune('a'+i))
		return it
	}
	sched := PriceSchedule{{Term: 1, Price: 1}}

	// Drain via Buy.
	itBuy := card(0)
	if _, err := b.List("s", itBuy, 100, sched); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Buy("b", itBuy.Name, 1); err != nil {
		t.Fatal(err)
	}
	// Drain via Cancel.
	itCancel := card(1)
	id, err := b.List("s", itCancel, 100, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err != nil {
		t.Fatal(err)
	}
	// Drain via Step-driven expiry.
	itExpire := card(2)
	if _, err := b.List("s", itExpire, 100, sched); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 100; h++ {
		b.Step()
	}

	if n := b.TypeCount(); n != 0 {
		t.Errorf("books map retains %d drained types, want 0", n)
	}

	// A partially drained book keeps its type.
	itHalf := card(3)
	b.List("s", itHalf, 100, sched)
	b.List("s", itHalf, 100, sched)
	if _, err := b.Buy("b", itHalf.Name, 1); err != nil {
		t.Fatal(err)
	}
	if n := b.TypeCount(); n != 1 {
		t.Errorf("books map has %d types, want 1", n)
	}
}

// t2nano is the paper's Section III.B example card.
func t2nano() pricing.InstanceType {
	return pricing.InstanceType{
		Name:           "t2.nano",
		OnDemandHourly: 0.0059,
		Upfront:        18,
		ReservedHourly: 0.002,
		PeriodHours:    pricing.HoursPerYear,
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPaperT2NanoSellingExample(t *testing.T) {
	// Section III.B: selling the remaining second half of a t2.nano
	// reservation. Cap = $9; at 20% off the ask is $7.20; the buyer pays
	// $7.20 and the seller receives $7.20 * (1 - 0.12) = $6.336.
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	if got := ProratedCap(it, half); !almostEqual(got, 9, 1e-9) {
		t.Fatalf("ProratedCap = %v, want 9", got)
	}
	if _, err := b.ListDeclining("seller", it, half, 0.8); err != nil {
		t.Fatal(err)
	}
	trades, err := b.Buy("buyer", "t2.nano", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 1 {
		t.Fatalf("trades = %d, want 1", len(trades))
	}
	tr := trades[0]
	if !almostEqual(tr.PricePaid, 7.2, 1e-9) {
		t.Errorf("PricePaid = %v, want 7.2", tr.PricePaid)
	}
	if !almostEqual(tr.SellerProceeds, 6.336, 1e-9) {
		t.Errorf("SellerProceeds = %v, want 6.336", tr.SellerProceeds)
	}
	if !almostEqual(tr.Fee, 0.864, 1e-9) {
		t.Errorf("Fee = %v, want 0.864", tr.Fee)
	}
	paid, proceeds, fees := b.Totals()
	if !almostEqual(paid, 7.2, 1e-9) || !almostEqual(proceeds, 6.336, 1e-9) || !almostEqual(fees, 0.864, 1e-9) {
		t.Errorf("Totals = %v/%v/%v, want 7.2/6.336/0.864", paid, proceeds, fees)
	}
}

// TestListValidation covers the listing rules the schedule enforces:
// a positive ask at most the prorated cap, for a positive strict part
// of the period, from a named seller of a valid card.
func TestListValidation(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	months := MonthsRemaining(half)
	tests := []struct {
		name      string
		seller    string
		remaining int
		ask       float64
	}{
		{name: "empty seller", seller: "", remaining: half, ask: 5},
		{name: "zero remaining", seller: "s", remaining: 0, ask: 5},
		{name: "full period remaining", seller: "s", remaining: it.PeriodHours, ask: 5},
		{name: "zero ask", seller: "s", remaining: half, ask: 0},
		{name: "ask above prorated cap", seller: "s", remaining: half, ask: 9.01},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := b.List(tt.seller, it, tt.remaining, PriceSchedule{{Term: months, Price: tt.ask}}); err == nil {
				t.Error("List succeeded, want error")
			}
		})
	}
	if _, err := b.List("s", pricing.InstanceType{}, half, PriceSchedule{{Term: months, Price: 1}}); err == nil {
		t.Error("invalid instance accepted")
	}
	if _, err := b.ListDeclining("s", it, half, 0); err == nil {
		t.Error("zero discount accepted")
	}
	if _, err := b.ListDeclining("s", it, half, 1.2); err == nil {
		t.Error("discount above 1 accepted")
	}
	if b.OpenCount() != 0 {
		t.Errorf("rejected listings left %d open", b.OpenCount())
	}
}

func TestSalesLedgerCopies(t *testing.T) {
	b := mustBook(t, AmazonFee)
	if _, err := b.ListDeclining("s", t2nano(), 100, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Buy("b", "t2.nano", 1); err != nil {
		t.Fatal(err)
	}
	ledger := b.Trades()
	if len(ledger) != 1 {
		t.Fatalf("ledger = %d, want 1", len(ledger))
	}
	ledger[0].Buyer = "tampered"
	if b.Trades()[0].Buyer != "b" {
		t.Error("Trades ledger aliased internal state")
	}
}

// TestConcurrentListAndBuy runs sellers, buyers and the clock
// concurrently against one book; under -race it pins the locking of
// every mutator, and afterwards every listing is accounted for exactly
// once.
func TestConcurrentListAndBuy(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	const sellers, perSeller = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < sellers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSeller; j++ {
				// Long enough to outlive every Step below.
				if _, err := b.ListDeclining("s", it, 1000, 0.8); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	var mu sync.Mutex
	bought := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				trades, err := b.Buy("b", it.Name, 2)
				if err != nil && !errors.Is(err, ErrNoListings) {
					t.Error(err)
					return
				}
				mu.Lock()
				bought += len(trades)
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for h := 0; h < 100; h++ {
			b.Step()
		}
	}()
	wg.Wait()

	if got := b.Now(); got != 100 {
		t.Errorf("clock = %d, want 100", got)
	}
	if b.ExpiredCount() != 0 {
		t.Errorf("%d listings expired early", b.ExpiredCount())
	}
	if got := len(b.Trades()); got != bought {
		t.Errorf("ledger holds %d trades, buyers saw %d", got, bought)
	}
	if open := b.OpenCount(); bought+open != sellers*perSeller {
		t.Errorf("sold %d + open %d != listed %d", bought, open, sellers*perSeller)
	}
	// The remaining book still drains completely.
	if open := b.OpenCount(); open > 0 {
		trades, err := b.Buy("b", it.Name, open)
		if err != nil || len(trades) != open {
			t.Fatalf("final drain = (%d, %v), want %d", len(trades), err, open)
		}
	}
	if b.OpenCount() != 0 || b.TypeCount() != 0 {
		t.Errorf("book not empty after drain: open %d, types %d", b.OpenCount(), b.TypeCount())
	}
}

// TestNewValidatesFee pins the fee's lower edge: a zero-fee book is
// valid, and its sellers keep the whole price.
func TestNewValidatesFee(t *testing.T) {
	b := mustBook(t, 0)
	if _, err := b.ListDeclining("s", t2nano(), 100, 0.5); err != nil {
		t.Fatal(err)
	}
	trades, err := b.Buy("b", "t2.nano", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr := trades[0]; tr.Fee != 0 || tr.SellerProceeds != tr.PricePaid {
		t.Errorf("zero-fee trade split %v into fee %v + proceeds %v", tr.PricePaid, tr.Fee, tr.SellerProceeds)
	}
}

// flat is a one-term schedule: the same ask for the listing's whole
// remaining period.
func flat(remainingHours int, ask float64) PriceSchedule {
	return PriceSchedule{{Term: MonthsRemaining(remainingHours), Price: ask}}
}

func TestBuyLowestUpfrontFirst(t *testing.T) {
	// The paper: "the marketplace sells the reserved instance with the
	// lowest upfront fee at first".
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	for _, l := range []struct {
		seller string
		ask    float64
	}{{"expensive", 9}, {"cheap", 5}, {"middle", 7}} {
		if _, err := b.List(l.seller, it, half, flat(half, l.ask)); err != nil {
			t.Fatal(err)
		}
	}
	trades, err := b.Buy("buyer", "t2.nano", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 2 || trades[0].Seller != "cheap" || trades[1].Seller != "middle" {
		t.Fatalf("fills = %+v, want cheap then middle", trades)
	}
	if left := b.OpenBook("t2.nano"); len(left) != 1 || left[0].Seller != "expensive" {
		t.Errorf("open book = %+v, want only expensive", left)
	}
}

func TestBuyEqualPriceFIFO(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	for _, seller := range []string{"first", "second", "third"} {
		if _, err := b.List(seller, it, half, flat(half, 6)); err != nil {
			t.Fatal(err)
		}
	}
	trades, err := b.Buy("buyer", "t2.nano", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"first", "second", "third"} {
		if trades[i].Seller != want {
			t.Errorf("trade %d seller = %s, want %s", i, trades[i].Seller, want)
		}
	}
}

func TestBuyPartialFillAndErrors(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	if _, err := b.Buy("buyer", "t2.nano", 1); !errors.Is(err, ErrNoListings) {
		t.Errorf("err = %v, want ErrNoListings", err)
	}
	if _, err := b.Buy("", "t2.nano", 1); err == nil {
		t.Error("empty buyer accepted")
	}
	if _, err := b.Buy("b", "t2.nano", 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := b.ListDeclining("s", it, 100, 0.1); err != nil {
		t.Fatal(err)
	}
	trades, err := b.Buy("buyer", "t2.nano", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 1 {
		t.Errorf("partial fill = %d trades, want 1", len(trades))
	}
	// Book now empty again.
	if _, err := b.Buy("buyer", "t2.nano", 1); !errors.Is(err, ErrNoListings) {
		t.Errorf("err after drain = %v, want ErrNoListings", err)
	}
}

func TestCancel(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	id, err := b.ListDeclining("s", it, 100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err == nil {
		t.Error("double cancel succeeded")
	}
	if got := b.OpenBook("t2.nano"); len(got) != 0 {
		t.Errorf("open listings after cancel = %d", len(got))
	}
}

// TestAdvanceShrinksAndRecaps: a listing asking exactly the prorated
// cap ages with the clock, and a later fill pays the new, lower cap.
func TestAdvanceShrinksAndRecaps(t *testing.T) {
	it := t2nano() // R=18, T=8760
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	if _, err := b.List("s", it, half, flat(half, ProratedCap(it, half))); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < it.PeriodHours/4; h++ {
		if res := b.Step(); len(res.Expired) != 0 {
			t.Fatalf("hour %d: expired %d, want 0", res.Hour, len(res.Expired))
		}
	}
	open := b.OpenBook(it.Name)
	if len(open) != 1 {
		t.Fatalf("open = %d", len(open))
	}
	wantRem := half - it.PeriodHours/4
	if got := open[0].RemainingAt(b.Now()); got != wantRem {
		t.Errorf("remaining = %d, want %d", got, wantRem)
	}
	trades, err := b.Buy("b", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wantCap := ProratedCap(it, wantRem); !almostEqual(trades[0].PricePaid, wantCap, 1e-9) {
		t.Errorf("paid %v, want re-capped %v", trades[0].PricePaid, wantCap)
	}
}

func TestAdvanceExpires(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	short, err := b.ListDeclining("short", it, 100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ListDeclining("long", it, 5000, 0.1); err != nil {
		t.Fatal(err)
	}
	expired := 0
	for h := 0; h < 100; h++ {
		expired += len(b.Step().Expired)
	}
	if expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
	open := b.OpenBook(it.Name)
	if len(open) != 1 || open[0].Seller != "long" {
		t.Errorf("open = %+v", open)
	}
	if b.OpenCount() != 1 {
		t.Errorf("OpenCount = %d", b.OpenCount())
	}
	// The expired listing can no longer be cancelled.
	if err := b.Cancel(short); err == nil {
		t.Error("cancel of expired listing succeeded")
	}
}

// TestPropertyConservation: at any fee, on either side of splitFee's
// 0.5 branch, every dollar the buyers pay is split bit-exactly between
// seller proceeds and marketplace fees, and the book's totals equal
// the ledger's re-sums.
func TestPropertyConservation(t *testing.T) {
	it := t2nano()
	f := func(asksRaw []uint8, feeSel uint8) bool {
		if len(asksRaw) == 0 {
			return true
		}
		b, err := NewOrderBook(float64(feeSel%100) / 100) // [0, 0.99]
		if err != nil {
			return false
		}
		cap := ProratedCap(it, 1000)
		for _, raw := range asksRaw {
			if _, err := b.List("s", it, 1000, flat(1000, cap*float64(int(raw)%100+1)/100)); err != nil {
				return false
			}
		}
		trades, err := b.Buy("b", it.Name, len(asksRaw))
		if err != nil || len(trades) != len(asksRaw) {
			return false
		}
		var paid, proceeds, fees float64
		for _, tr := range trades {
			if tr.PricePaid != tr.Fee+tr.SellerProceeds {
				return false
			}
			paid += tr.PricePaid
			proceeds += tr.SellerProceeds
			fees += tr.Fee
		}
		gotPaid, gotProceeds, gotFees := b.Totals()
		return gotPaid == paid && gotProceeds == proceeds && gotFees == fees
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBuyOrderMonotone: successive fill prices never decrease.
func TestPropertyBuyOrderMonotone(t *testing.T) {
	it := t2nano()
	f := func(asksRaw []uint8) bool {
		if len(asksRaw) == 0 {
			return true
		}
		b, err := NewOrderBook(AmazonFee)
		if err != nil {
			return false
		}
		cap := ProratedCap(it, 2000)
		for _, raw := range asksRaw {
			if _, err := b.List("s", it, 2000, flat(2000, cap*float64(int(raw)%100+1)/100)); err != nil {
				return false
			}
		}
		trades, err := b.Buy("b", it.Name, len(asksRaw))
		if err != nil {
			return false
		}
		for i := 1; i < len(trades); i++ {
			if trades[i].PricePaid < trades[i-1].PricePaid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAdvanceKeepsDiscountedAsk: advancing the clock leaves an ask
// that is still below the shrinking prorated cap untouched.
func TestAdvanceKeepsDiscountedAsk(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	if _, err := b.List("s", it, half, flat(half, 1.0)); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 100; h++ {
		b.Step()
	}
	trades, err := b.Buy("b", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr := trades[0]; tr.PricePaid != 1.0 || tr.RemainingHours != half-100 {
		t.Errorf("fill paid %v with %d h left, want 1.0 with %d h", tr.PricePaid, tr.RemainingHours, half-100)
	}
}

// TestAdvancePreservesBookOrder: two flat asks keep their priority as
// the clock advances.
func TestAdvancePreservesBookOrder(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	if _, err := b.List("cheap", it, 4000, flat(4000, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.List("dear", it, 4000, flat(4000, 8)); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 500; h++ {
		b.Step()
	}
	trades, err := b.Buy("b", it.Name, 2)
	if err != nil {
		t.Fatal(err)
	}
	if trades[0].Seller != "cheap" || trades[1].Seller != "dear" {
		t.Errorf("order after aging = %s, %s", trades[0].Seller, trades[1].Seller)
	}
}

// TestPropertyAdvanceInvariants: after any run of clock steps, every
// open listing has positive remaining hours, OpenCount matches the
// book, and draining it pays a positive price within the prorated cap
// at the fill hour.
func TestPropertyAdvanceInvariants(t *testing.T) {
	it := t2nano()
	f := func(remsRaw []uint16, steps []uint8) bool {
		b, err := NewOrderBook(AmazonFee)
		if err != nil {
			return false
		}
		for _, raw := range remsRaw {
			if _, err := b.ListDeclining("s", it, int(raw)%(it.PeriodHours-1)+1, 0.9); err != nil {
				return false
			}
		}
		for _, s := range steps {
			for n := int(s) * 10; n > 0; n-- {
				b.Step()
			}
		}
		open := b.OpenBook(it.Name)
		if len(open) != b.OpenCount() {
			return false
		}
		for _, l := range open {
			if l.RemainingAt(b.Now()) <= 0 {
				return false
			}
		}
		if len(open) == 0 {
			return true
		}
		trades, err := b.Buy("b", it.Name, len(open))
		if err != nil || len(trades) != len(open) {
			return false
		}
		for _, tr := range trades {
			if tr.PricePaid <= 0 || tr.PricePaid > ProratedCap(it, tr.RemainingHours) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
