// Greener-grid what-if: rerun the same carbon-aware schedule while the
// grid's renewable share grows, reproducing the paper's §6.3 takeaway
// at example scale — carbon-aware scheduling keeps winning, but its
// edge over doing nothing shrinks as the grid itself decarbonizes.
//
// Run with:
//
//	go run ./examples/greener
package main

import (
	"fmt"
	"log"

	"carbonshift/internal/regions"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/stats"
	"carbonshift/internal/temporal"
)

func main() {
	region := regions.MustByCode("US-CA")
	const (
		length = 24
		slack  = 7 * 24
		hours  = 120 * 24
	)

	// One weather draw for the region, re-dispatched at each renewable
	// level: the levels differ only in the mix that meets the demand.
	levels := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	series, err := simgrid.WhatIf(region, simgrid.Config{Seed: 3, Hours: hours}, levels, hours)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("24h deferrable+interruptible job in US-CA, 7-day slack")
	fmt.Printf("%-12s %12s %12s %12s\n", "renewables", "agnostic g/h", "aware g/h", "advantage")
	for i, add := range levels {
		costs, err := temporal.Sweep(series[i], length, slack, hours-length-slack)
		if err != nil {
			log.Fatal(err)
		}
		agnostic := stats.Mean(costs.Baseline) / length
		aware := stats.Mean(costs.Interrupted) / length
		fmt.Printf("%-12s %12.1f %12.1f %12.1f\n",
			fmt.Sprintf("+%.0f%%", add*100), agnostic, aware, agnostic-aware)
	}
	fmt.Println("\nboth curves fall, but the gap — the value of being carbon-aware —")
	fmt.Println("falls with them: a greener grid needs less scheduling cleverness.")
}
