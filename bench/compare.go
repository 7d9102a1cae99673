package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"text/tabwriter"
)

// quartiles matches Python's statistics.quantiles(values, n=4) — the
// exclusive method the benchmark's acceptance rule is written in.
// It needs at least two values.
func quartiles(xs []float64) (q [3]float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	m := len(data)
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q
}

// spread is the distance between the first and third quartile as a
// share of the median; 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	return (q[2] - q[0]) / q[1]
}

// verdict judges B against A for one metric, by the rule in the
// choosing-metrics guide: worse or better only beyond the bound, and
// unresolved when the run-to-run spread is wider than the bound —
// unless every run of one side beats every run of the other.
func verdict(d metricDef, a, b []float64) (worseBy float64, word string) {
	ma, mb := median(a), median(b)
	worseBy = (mb - ma) / ma
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	sa, sb := summarize(a), summarize(b)
	allBetter, allWorse := sb.max < sa.min, sb.min > sa.max
	if d.Better == "higher" {
		allBetter, allWorse = allWorse, allBetter
	}
	switch {
	case math.Max(spread(a), spread(b)) > d.Bound && !allBetter && !allWorse:
		word = "unresolved"
	case worseBy > d.Bound:
		word = "worse"
	case worseBy < -d.Bound:
		word = "better"
	default:
		word = "same"
	}
	return worseBy, word
}

// compare prints, per workload × user-facing metric, both medians, the
// ratio B÷A with its base, the bound and the verdict, and returns how
// many gated metrics' medians disagree by more than their bound in
// either direction. Demoted metrics are judged and printed the same
// way but do not count.
func compare(w io.Writer, a, b ledger) (disagree int) {
	va, vb := a.valuesOf(), b.valuesOf()
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (n, spread)\tB median (n, spread)\tB/A\tbound\tgate\tverdict")
	demoted := 0
	for _, wl := range slices.Sorted(maps.Keys(va)) {
		for _, d := range userFacing {
			xa, xb := va[wl][d.Name], vb[wl][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worseBy, word := verdict(d, xa, xb)
			gate := "gated"
			if d.Demoted {
				gate = "demoted"
			}
			if math.Abs(worseBy) > d.Bound {
				if d.Demoted {
					demoted++
				} else {
					disagree++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g (%d, %.1f%%)\t%.6g (%d, %.1f%%)\t%.3f of %.6g %s\t%.2f\t%s\t%s\n",
				wl, d.Name, median(xa), len(xa), 100*spread(xa), median(xb), len(xb), 100*spread(xb),
				median(xb)/median(xa), median(xa), d.Unit, d.Bound, gate, word)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "medians apart by more than the bound: %d gated, %d demoted\n", disagree, demoted)
	return disagree
}

// sameLoad refuses to compare ledgers whose runs differ in size or
// client count: every user-facing metric means something else then.
func sameLoad(a, b ledger) error {
	type load struct {
		seconds float64
		clients int
	}
	seen := map[string]load{}
	for _, r := range append(append([]runReport(nil), a.Runs...), b.Runs...) {
		if r.Trace {
			continue // compare reads untraced runs only
		}
		l := load{r.Seconds, r.Clients}
		if first, ok := seen[r.Workload]; ok && first != l {
			return fmt.Errorf("%s: runs of -seconds %g with %d clients and of -seconds %g with %d clients do not compare",
				r.Workload, first.seconds, first.clients, l.seconds, l.clients)
		}
		seen[r.Workload] = l
	}
	return nil
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readLedger(pathA)
	if err != nil {
		return err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return err
	}
	if err := sameLoad(a, b); err != nil {
		return err
	}
	compare(w, a, b)
	return nil
}
