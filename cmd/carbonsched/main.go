// Command carbonsched runs the carbon-aware cluster-scheduler
// simulation and compares scheduling policies on the same job stream —
// the constrained counterpart to the analytical upper bounds that
// cmd/carbonlimits computes.
//
// Usage:
//
//	carbonsched                         # defaults: 3 regions, 400 jobs, 60 days
//	carbonsched -regions DE,SE,US-CA -jobs 1000 -slots 40
//	carbonsched -slack 168 -migratable 0.8 -interruptible 0.9 -workers 4
//
// The policies run concurrently on -workers goroutines (default: one
// per CPU) over the same deterministic job stream; the comparison table
// is identical for every worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"carbonshift/internal/engine"
	"carbonshift/internal/regions"
	"carbonshift/internal/sched"
	"carbonshift/internal/simgrid"
)

func main() {
	var (
		regionList    = flag.String("regions", "DE,SE,US-CA", "comma-separated cluster regions")
		jobs          = flag.Int("jobs", 400, "number of jobs")
		slots         = flag.Int("slots", 30, "slots per regional cluster")
		days          = flag.Int("days", 60, "simulation horizon in days")
		slack         = flag.Int("slack", 48, "per-job slack in hours")
		interruptible = flag.Float64("interruptible", 0.8, "fraction of interruptible jobs")
		migratable    = flag.Float64("migratable", 0.6, "fraction of migratable jobs")
		seed          = flag.Uint64("seed", 1, "simulation seed")
		workers       = flag.Int("workers", 0, "engine worker bound (0 = one per CPU, 1 = serial)")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "carbonsched: negative -workers %d\n", *workers)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var regs []regions.Region
	var codes []string
	for _, code := range strings.Split(*regionList, ",") {
		code = strings.TrimSpace(code)
		r, ok := regions.ByCode(code)
		if !ok {
			fmt.Fprintf(os.Stderr, "carbonsched: unknown region %q\n", code)
			os.Exit(2)
		}
		regs = append(regs, r)
		codes = append(codes, code)
	}
	horizon := *days * 24
	set, err := simgrid.GenerateCached(ctx, regs, simgrid.Config{Seed: *seed, Hours: horizon}, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbonsched:", err)
		os.Exit(1)
	}

	arrivalSpan := horizon - 10*24
	if arrivalSpan < 1 {
		fmt.Fprintln(os.Stderr, "carbonsched: horizon too short")
		os.Exit(2)
	}
	stream, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              *jobs,
		ArrivalSpan:       arrivalSpan,
		SlackHours:        *slack,
		InterruptibleFrac: *interruptible,
		MigratableFrac:    *migratable,
		Origins:           codes,
		Seed:              *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbonsched:", err)
		os.Exit(1)
	}

	var clusters []sched.Cluster
	for _, code := range codes {
		clusters = append(clusters, sched.Cluster{Region: code, Slots: *slots})
	}

	policies := []sched.Policy{
		sched.FIFO{},
		sched.CarbonGate{Percentile: 35, Window: 168},
		sched.ForecastGate{Percentile: 35},
		sched.GreenestFirst{},
		sched.SpatioTemporal{Percentile: 35, Window: 168},
	}

	fmt.Printf("%d jobs, %d regions x %d slots, %d-day horizon, slack %dh\n\n",
		*jobs, len(codes), *slots, *days, *slack)
	fmt.Printf("%-16s %14s %10s %8s %8s %10s\n",
		"policy", "emissions_kg", "vs_fifo", "missed", "wait_h", "util")
	// Each policy simulates the same job stream independently; fan them
	// across the worker pool and print in the fixed policy order.
	results, err := engine.Map(ctx, *workers, len(policies), func(_ context.Context, i int) (sched.Result, error) {
		return sched.Run(set, clusters, stream, policies[i], horizon)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbonsched:", err)
		os.Exit(1)
	}
	fifoEmissions := results[0].TotalEmissions
	for _, res := range results {
		saving := 0.0
		if fifoEmissions > 0 {
			saving = 100 * (fifoEmissions - res.TotalEmissions) / fifoEmissions
		}
		fmt.Printf("%-16s %14.1f %9.1f%% %8d %8.1f %9.1f%%\n",
			res.Policy, res.TotalEmissions/1000, saving, res.Missed,
			res.MeanWaitHours, 100*res.Utilization())
	}
}
