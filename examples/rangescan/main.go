// Range scans over a main-memory order table: an OLAP-style scenario
// exercising the Seg-Tree as a secondary index. Orders are indexed by a
// 32-bit order date (days since epoch); queries fetch revenue over date
// windows through the B+-Tree's leaves while point updates trickle in.
package main

import (
	"fmt"
	"math/rand"
	"time"

	simdtree "repro"
)

type order struct {
	Revenue float64
	Lines   int
}

func main() {
	rng := rand.New(rand.NewSource(2014))

	// One order per date over ~55 years of days, bulk-loaded sorted.
	const days = 20000
	dates := make([]uint32, days)
	orders := make([]order, days)
	for i := range dates {
		dates[i] = uint32(i)
		orders[i] = order{Revenue: float64(rng.Intn(100000)) / 100, Lines: 1 + rng.Intn(7)}
	}
	idx := simdtree.BulkLoadSegTree(dates, orders)
	fmt.Printf("loaded %d orders, height %d\n\n", idx.Len(), idx.Height())

	// Quarterly revenue report: 90-day windows.
	fmt.Println("quarterly revenue (first 4 windows):")
	for q := 0; q < 4; q++ {
		lo, hi := uint32(q*90), uint32(q*90+89)
		var revenue float64
		var count int
		idx.Scan(lo, hi, func(_ uint32, o order) bool {
			revenue += o.Revenue
			count++
			return true
		})
		fmt.Printf("  days [%5d,%5d]: %4d orders, %10.2f revenue\n", lo, hi, count, revenue)
	}

	// Mixed read/write phase: late-arriving orders (random dates beyond
	// the loaded range) interleaved with window queries.
	inserted := 0
	for i := 0; i < 5000; i++ {
		d := uint32(days + rng.Intn(4000))
		if idx.Put(d, order{Revenue: float64(rng.Intn(50000)) / 100, Lines: 1}) {
			inserted++
		}
	}
	fmt.Printf("\ninserted %d late orders, new size %d\n", inserted, idx.Len())

	// Top-of-range query including the new data.
	var lateRevenue float64
	idx.Scan(days, days+4000, func(_ uint32, o order) bool {
		lateRevenue += o.Revenue
		return true
	})
	fmt.Printf("late-order revenue: %.2f\n", lateRevenue)

	// Point queries by exact date.
	start := time.Now()
	hits := 0
	for i := 0; i < 100000; i++ {
		if _, ok := idx.Get(uint32(rng.Intn(days + 4000))); ok {
			hits++
		}
	}
	fmt.Printf("\n100k point lookups: %v total, %d hits\n",
		time.Since(start).Round(time.Millisecond), hits)

	// First/last business dates via Min/Max.
	if k, _, ok := idx.Min(); ok {
		fmt.Printf("first date: %d\n", k)
	}
	if k, _, ok := idx.Max(); ok {
		fmt.Printf("last date:  %d\n", k)
	}

	// Retention: delete the oldest year.
	deleted := 0
	for d := uint32(0); d < 365; d++ {
		if idx.Delete(d) {
			deleted++
		}
	}
	fmt.Printf("\ndeleted %d orders of the first year, size now %d\n", deleted, idx.Len())
	if k, _, ok := idx.Min(); ok {
		fmt.Printf("new first date: %d\n", k)
	}
}
