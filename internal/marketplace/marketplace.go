// Package marketplace simulates the Amazon EC2 Reserved Instance
// Marketplace rules the paper builds on (Section III.B):
//
//   - a seller lists the remaining period of a reserved instance for an
//     upfront fee of at most the prorated original upfront
//     (R * remaining/T), typically discounted by a factor a to attract
//     buyers;
//   - listings for the same instance type sell lowest-upfront-first;
//   - the marketplace keeps a service fee (Amazon charges 12%) and the
//     seller receives the rest;
//   - once sold, the seller loses the discounted hourly rate for the
//     instance's remaining period.
//
// OrderBook is the one market model: an hour-stepped book whose asks
// follow month-granularity declining price schedules, the
// PriceSchedules shape of the real listing API. It is safe for
// concurrent use and fully deterministic: equal-priced listings sell
// in listing order.
package marketplace

import (
	"errors"

	"rimarket/internal/pricing"
)

// AmazonFee is the service fee Amazon charges on each sale.
const AmazonFee = 0.12

// ListingID identifies a live listing.
type ListingID int64

// ProratedCap returns the maximum upfront a seller may ask: the
// original upfront scaled by the remaining fraction of the period
// (the paper's t2.nano example: half the cycle left caps the ask at $9
// of the original $18).
func ProratedCap(it pricing.InstanceType, remainingHours int) float64 {
	return it.Upfront * float64(remainingHours) / float64(it.PeriodHours)
}

// ErrNoListings is returned by Buy when no listing of the requested
// type is open.
var ErrNoListings = errors.New("marketplace: no open listings for instance type")
