// Command carbonlimits runs the paper's experiments and prints the
// table or CSV series behind each figure.
//
// Usage:
//
//	carbonlimits -list
//	carbonlimits -exp fig5a
//	carbonlimits -all -format csv -out results/
//	carbonlimits -exp fig7 -seed 7 -span 2000 -workers 8
//	carbonlimits -exp policies -seed 7
//
// Each experiment id corresponds to one figure of the paper's
// evaluation; see DESIGN.md for the index. -exp also runs a study, an
// analysis beyond the paper's figures (policies: the five scheduling
// policies on finite clusters), over the study's own world only;
// -list prints both lists, while -all and -report stay the paper's
// list. Experiments fan their
// independent cells across -workers goroutines (default: one per CPU);
// results are byte-identical for every worker count, and -workers 1
// runs the serial reference path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"carbonshift/internal/core"
	"carbonshift/internal/simgrid"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment or study id to run (see -list)")
		all     = flag.Bool("all", false, "run every paper experiment")
		report  = flag.Bool("report", false, "emit a full markdown report of every experiment")
		list    = flag.Bool("list", false, "list experiments and studies, and exit")
		format  = flag.String("format", "text", "output format: text or csv")
		outDir  = flag.String("out", "", "write per-experiment files into this directory instead of stdout")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		span    = flag.Int("span", 0, "arrival span in hours (default 8760)")
		stride  = flag.Int("stride", 0, "arrival stride for scenario sweeps (default ~293)")
		workers = flag.Int("workers", 0, "engine worker bound (0 = one per CPU, 1 = serial)")
		verbose = flag.Bool("v", false, "print progress to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := conflict(set); err != nil {
		fmt.Fprintln(os.Stderr, "carbonlimits:", err)
		os.Exit(2)
	}
	if *list {
		for _, e := range append(core.Experiments(), core.Studies()...) {
			fmt.Printf("%-8s %-14s %s\n", e.ID, e.Figure, e.Title)
		}
		return
	}
	if !*all && !*report && *expID == "" {
		fmt.Fprintln(os.Stderr, "carbonlimits: need -exp <id>, -all, or -report (try -list)")
		os.Exit(2)
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "carbonlimits: unknown format %q\n", *format)
		os.Exit(2)
	}

	opts := core.Options{Sim: simgrid.Config{Seed: *seed}, ArrivalSpan: *span, Stride: *stride, Workers: *workers}
	var exps []core.Experiment
	if *all {
		exps = core.Experiments()
	} else if *expID != "" {
		e, err := core.ExperimentByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carbonlimits:", err)
			os.Exit(2)
		}
		exps = []core.Experiment{e}
		// One lab, over the world the entry reads: a study's own.
		asked := opts
		opts = e.Options(opts)
		if err := dropped(set, e.ID, asked, opts); err != nil {
			fmt.Fprintln(os.Stderr, "carbonlimits:", err)
			os.Exit(2)
		}
	}

	start := time.Now()
	lab, err := core.NewLabCtx(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbonlimits:", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "carbonlimits: %d-region, %d-hour dataset ready in %v (global mean %.1f g/kWh)\n",
			lab.Set.Size(), lab.Set.Len(), time.Since(start).Round(time.Millisecond), lab.GlobalMean)
	}

	if *report {
		if err := lab.WriteReport(ctx, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "carbonlimits:", err)
			os.Exit(1)
		}
		return
	}

	for _, e := range exps {
		t0 := time.Now()
		tbl, err := e.Run(ctx, lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "carbonlimits: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "carbonlimits: %s done in %v\n",
				e.ID, time.Since(t0).Round(time.Millisecond))
		}
		if err := emit(tbl, *format, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "carbonlimits: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}

// conflict reports the first pair of set flags (by name) where one
// would silently ignore the other: -list only prints the index and
// builds no lab, so it takes none of the lab's options either; -report
// writes one markdown document to stdout; and -all runs every
// experiment.
func conflict(set map[string]bool) error {
	for _, p := range [][2]string{
		{"list", "exp"}, {"list", "all"}, {"list", "report"}, {"list", "format"}, {"list", "out"},
		{"list", "seed"}, {"list", "span"}, {"list", "stride"}, {"list", "workers"}, {"list", "v"},
		{"report", "all"}, {"report", "exp"}, {"report", "format"}, {"report", "out"}, {"all", "exp"},
	} {
		if set[p[0]] && set[p[1]] {
			return fmt.Errorf("-%s ignores -%s; give one of them", p[0], p[1])
		}
	}
	return nil
}

// dropped reports the first of -span and -stride that is set but that
// the entry's world (got, from asked) no longer carries: a study over a
// world of its own would silently run without it. -seed and -workers
// carry into every world.
func dropped(set map[string]bool, id string, asked, got core.Options) error {
	for _, f := range []struct {
		name string
		kept bool
	}{
		{"span", got.ArrivalSpan == asked.ArrivalSpan},
		{"stride", got.Stride == asked.Stride},
	} {
		if set[f.name] && !f.kept {
			return fmt.Errorf("-exp %s ignores -%s: it runs on a world of its own", id, f.name)
		}
	}
	return nil
}

func emit(tbl *core.Table, format, outDir string) error {
	if outDir == "" {
		if format == "csv" {
			return tbl.WriteCSV(os.Stdout)
		}
		fmt.Println(tbl.String())
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ext := ".txt"
	if format == "csv" {
		ext = ".csv"
	}
	path := filepath.Join(outDir, tbl.ID+ext)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "csv" {
		if err := tbl.WriteCSV(f); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintln(f, strings.TrimRight(tbl.String(), "\n")); err != nil {
			return err
		}
	}
	return f.Close()
}
