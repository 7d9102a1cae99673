// Cluster scheduling under contention: the paper's limits analysis
// assumes every job can run in the cleanest hours; a real cluster has
// finite slots. This example runs the same job stream through a
// carbon-agnostic and a carbon-aware scheduler at several capacity
// levels and prints the emissions, saving and missed deadlines of each.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"carbonshift/internal/regions"
	"carbonshift/internal/sched"
	"carbonshift/internal/simgrid"
)

func main() {
	const horizon = 45 * 24
	region := regions.MustByCode("DE")
	set, err := simgrid.Generate([]regions.Region{region},
		simgrid.Config{Seed: 21, Hours: horizon})
	if err != nil {
		log.Fatal(err)
	}

	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              300,
		ArrivalSpan:       horizon - 10*24,
		SlackHours:        48,
		InterruptibleFrac: 1,
		MigratableFrac:    0,
		Origins:           []string{"DE"},
		Seed:              21,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 24 {
			jobs[i].Length = 24
		}
	}

	fmt.Println("300 interruptible jobs in DE, 48h slack; carbon-gate vs FIFO")
	fmt.Printf("%-8s %12s %12s %9s %7s\n", "slots", "fifo kg", "gate kg", "saving", "missed")
	for _, slots := range []int{200, 40, 20, 12} {
		cl := []sched.Cluster{{Region: "DE", Slots: slots}}
		fifo, err := sched.Run(set, cl, jobs, sched.FIFO{}, horizon)
		if err != nil {
			log.Fatal(err)
		}
		gate, err := sched.Run(set, cl, jobs,
			sched.CarbonGate{Percentile: 35, Window: 168}, horizon)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %12.1f %12.1f %8.1f%% %7d\n",
			slots, fifo.TotalEmissions/1000, gate.TotalEmissions/1000,
			100*(fifo.TotalEmissions-gate.TotalEmissions)/fifo.TotalEmissions,
			gate.Missed)
	}
}
