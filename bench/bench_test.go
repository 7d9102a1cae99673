package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// testSeconds shrinks every workload to a second or so, and testLab
// cuts the offline lab to 8 regions (fig11d alone takes 4 s on all
// 123). The golden file has offline_paper's digest at this size and the
// default seed, which is what makes the smoke test a drift test too.
const (
	testSeconds = 0.25
	testLab     = 8
)

var (
	updateManifest = flag.Bool("update-manifest", false, "rewrite ../BENCHMARK.json from metrics.go and spec.go")
	updateGolden   = flag.Bool("update-golden", false, "record the smoke test's offline digest in golden.json")
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runOnce drives the command's own entry point and returns the result
// line, exactly as the driver reads it, and the run's ledger row.
func runOnce(t *testing.T, workload string, trace int) (contractResult, runReport) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 1, seconds: testSeconds, labRegions: testLab, trace: trace, runs: 1, out: t.TempDir(), updateGolden: *updateGolden}
	if err := run(context.Background(), o, nil, &out); err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, out.String())
	}
	l, err := readLedger(filepath.Join(o.out, "runs.json"))
	if err != nil || len(l.Runs) != 1 {
		t.Fatalf("ledger: %d runs, err %v", len(l.Runs), err)
	}
	return res, l.Runs[0]
}

// requireMetrics asserts that exactly the defined metrics were emitted,
// each finite, positive where it must be, and carrying its defined unit.
func requireMetrics(t *testing.T, label string, defs []metricDef, got map[string]metric, positive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", label, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", label, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || positive && m.Value <= 0:
			t.Errorf("%s: metric %s is %v", label, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmoke runs the workloads untraced, and the traced run of the
// hardest one (tenancy, spatiotemporal, and at this size slot
// contention), at a tiny size through the real entry point. The traced
// run carries the layer-sum and placement checks; runOnce fails if any
// check did. In -short mode (the race leg, ten times slower) one
// untraced workload still runs, so the closed loop's two clients meet
// the race detector.
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Chdir(t.TempDir()) // the run's scratch tree lands here, not in the package directory
	for _, w := range workloads() {
		if testing.Short() && w.Name != "gw_binary_batch64" {
			continue
		}
		res, row := runOnce(t, w.Name, 0)
		requireMetrics(t, w.Name+" result line", gated(), res.Metrics, true)
		requireMetrics(t, w.Name+" ledger row", measuredBy(w), row.Metrics, true)
		if w.Online != nil && row.Clients != clients() {
			t.Errorf("%s ran with %d clients, want %d", w.Name, row.Clients, clients())
		}
	}
	res, _ := runOnce(t, "replay_resident", 1)
	requireMetrics(t, "replay_resident traced", tracedDefs(), res.Metrics, false)
	// Teardown must leave nothing of the rigs running. Connection
	// goroutines unwind asynchronously after their sockets close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines before, %d after teardown:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// manifest renders BENCHMARK.json from the metric tables and the
// workload specs at the nominal size.
func manifest() ([]byte, error) {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.why(nominalSeconds / float64(fullSizeSeconds))})
	}
	for _, d := range gated() {
		doc.EndToEnd = append(doc.EndToEnd, entry{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range tracedDefs() {
		doc.PerLayer = append(doc.PerLayer, entry{d.Name, d.Unit, d.Better, nil})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

// TestManifest pins BENCHMARK.json to the tables in metrics.go and
// spec.go (go test ./bench -run TestManifest -update-manifest rewrites
// it), and the names and limits to the benchmark contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if *updateManifest {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and spec.go; rerun with -update-manifest")
	}
	seen := map[string]bool{}
	for _, d := range append(gated(), tracedDefs()...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or duplicate metric name %q", d.Name)
		}
		seen[d.Name] = true
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
	}
	if len(gated())+len(tracedDefs()) != len(userFacing)+len(perLayer) {
		t.Errorf("a user-facing metric is in neither list or in both")
	}
	for _, d := range userFacing {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if !d.Demoted && d.Part != everyWorkload {
			t.Errorf("metric %s is gated but not measured by every workload", d.Name)
		}
	}
	for _, w := range workloads() {
		why := w.why(nominalSeconds / float64(fullSizeSeconds))
		if !metricName.MatchString(w.Name) || utf8.RuneCountInString(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, utf8.RuneCountInString(why))
		}
		if (w.Online == nil) == (w.Offline == nil) {
			t.Errorf("workload %q must have exactly one part", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	if got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func ledgerOf(workload, name string, seconds float64, values ...float64) ledger {
	var l ledger
	for _, v := range values {
		l.Runs = append(l.Runs, runReport{Workload: workload, Seconds: seconds, Clients: 2, Metrics: map[string]metric{name: {Value: v}}})
	}
	return l
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 100, 101, 99, 98}, "same"},
		{[]float64{80, 81, 79, 80, 82}, "worse"},
		{[]float64{130, 131, 129, 130, 128}, "better"},
		{[]float64{60, 140, 90, 120, 75}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(d, steady, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	// A gated metric apart by more than its bound counts; a demoted one
	// is printed but does not.
	var out bytes.Buffer
	a := ledgerOf("w", "heap_mb", 20, steady...)
	if n := compare(&out, a, ledgerOf("w", "heap_mb", 20, 130, 131, 129)); n != 1 {
		t.Errorf("compare counted %d gated disagreements, want 1\n%s", n, out.String())
	}
	if n := compare(&out, a, a); n != 0 {
		t.Errorf("a ledger disagrees with itself: %d", n)
	}
	out.Reset()
	if n := compare(&out, ledgerOf("w", "jobs_per_s", 20, steady...), ledgerOf("w", "jobs_per_s", 20, 70, 71, 69)); n != 0 || !strings.Contains(out.String(), "1 demoted") {
		t.Errorf("a demoted metric counted (%d) or was not marked:\n%s", n, out.String())
	}
	if err := sameLoad(a, ledgerOf("w", "heap_mb", 10, steady...)); err == nil {
		t.Errorf("ledgers of different sizes compared")
	}
	if err := sameLoad(a, a); err != nil {
		t.Errorf("a ledger does not compare with itself: %v", err)
	}
}

// TestReadLedgerDirectory: the paired-run recipe leaves one runs.json
// per invocation; a directory reads as all of them.
func TestReadLedgerDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, seed := range []string{"101", "102"} {
		sub := filepath.Join(dir, seed)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ledgerOf("w", "heap_mb", 20, 1).write(filepath.Join(sub, "runs.json")); err != nil {
			t.Fatal(err)
		}
	}
	l, err := readLedger(dir)
	if err != nil || len(l.Runs) != 2 {
		t.Fatalf("directory ledger: %d runs, err %v", len(l.Runs), err)
	}
	if l, err = readLedger(filepath.Join(dir, "101", "runs.json")); err != nil || len(l.Runs) != 1 {
		t.Fatalf("file ledger: %d runs, err %v", len(l.Runs), err)
	}
}
