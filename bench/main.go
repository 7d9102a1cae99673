// Command bench is the repository's benchmark: the real topology
// (client → gateway → 2 partitions × fsync-always primary + hot
// standby) and the paper's offline deliverable, measured end to end
// and — in a separate traced run — layer by layer, with every output
// checked.
//
//	go run ./bench                          every workload, untraced
//	go run ./bench -workload W -seed N      one workload; last line is the result JSON
//	go run ./bench -workload W -trace 1     the traced run: per-layer metrics
//	go run ./bench -selfcheck               two sets of the same code must agree
//	go run ./bench -compare A B             verdict per workload × user-facing metric
//
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"carbonshift/internal/schedd"
	"carbonshift/internal/simgrid"
)

// tmpRoot is where a run keeps its data directories, crash images and
// (by default) its ledger: inside the working directory, because the
// benchmark's contract lets it read and write only inside its checkout.
const tmpRoot = ".bench_tmp"

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	out          string
	runs         int
	updateGolden bool
	selfcheck    bool
	compare      bool
	// labRegions, set by tests only, cuts the offline lab to the first N
	// catalog regions: fig11d alone takes 4 s on all 123 at any size.
	labRegions int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the job stream, the tenant sequence, the lookup sample and the lab")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "size the run to measure for about this long")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: one client, spans on, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for the ledger (runs.json) and the traced run's spans (default: under "+tmpRoot+", removed at exit)")
	flag.IntVar(&o.runs, "runs", 1, "repetitions of each workload; with -selfcheck, per set")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "record this run's offline digest in bench/golden.json instead of checking it")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two interleaved sets and fail if a gated end-to-end metric disagrees by more than its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two ledgers (files, or directories of runs.json files): -compare A B")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, o, flag.Args(), os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished but failed a check or an
// operation; its result was still printed.
var errIncorrect = errors.New("a check or an operation failed")

func run(ctx context.Context, o options, args []string, stdout io.Writer) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare wants two ledgers")
		}
		return compareFiles(stdout, args[0], args[1])
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	specs := workloads()
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		specs = []workloadSpec{w}
	}

	// The replication long-poll logs a "slow request" WARN per run; the
	// servers' logs are not the benchmark's output.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.Remove(tmpRoot) // only if this run was its last user: a non-empty directory stays
	defer os.RemoveAll(root)
	if o.out == "" {
		o.out = filepath.Join(root, "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	sets := 1
	if o.selfcheck {
		sets = 2
	}
	ledgers := make([]ledger, sets)
	var last *runReport
	incorrect := false
	// Sets are interleaved run by run, so slow drift of the machine
	// (fsync latency moves by the minute) lands on both alike.
	for rep := 0; rep < o.runs; rep++ {
		for _, spec := range specs {
			for set := range ledgers {
				r, err := runWorkload(ctx, o, spec, filepath.Join(root, "w"))
				if err != nil {
					return fmt.Errorf("%s: %w", spec.Name, err)
				}
				r.print(stdout)
				incorrect = incorrect || !r.Correct
				ledgers[set].Runs = append(ledgers[set].Runs, *r)
				last = r
			}
		}
	}
	for i, l := range ledgers {
		name := "runs.json"
		if o.selfcheck {
			name = fmt.Sprintf("runs-%c.json", 'a'+i)
		}
		if err := l.write(filepath.Join(o.out, name)); err != nil {
			return err
		}
	}
	if o.selfcheck {
		if worse := compare(stdout, ledgers[0], ledgers[1]); worse > 0 {
			return fmt.Errorf("selfcheck: %d gated end-to-end metrics disagree by more than their bound", worse)
		}
	}
	if o.workload != "" && !o.selfcheck {
		// The contract's result line: the last line of standard output.
		line, err := json.Marshal(last.result())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// clients is the untraced run's load: a closed loop of min(2, nproc)
// callers, one connection each. The traced run uses one.
func clients() int { return min(2, runtime.NumCPU()) }

// runReport is one run of one workload: the ledger's row.
type runReport struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Clients   int               `json:"clients"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	// Notes are the human-readable lines that go with the numbers:
	// sizes, sample counts with min/max, the first failure.
	Notes []string `json:"notes,omitempty"`
}

// contractResult is the last line of a -workload run.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is what the driver reads: every end_to_end metric of
// BENCHMARK.json from an untraced run, every per_layer metric from a
// traced one. The ledger keeps everything the run measured.
func (r *runReport) result() contractResult {
	out := contractResult{r.Correct, r.Attempted, r.Failed, r.Metrics}
	if !r.Trace {
		out.Metrics = map[string]metric{}
		for _, d := range gated() {
			out.Metrics[d.Name] = r.Metrics[d.Name]
		}
	}
	return out
}

func (r *runReport) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// noteSamples records a timing series' sample count and spread next to
// the median or percentile the metric reports.
func (r *runReport) noteSamples(name string, s samples, unit string) {
	r.notef("%s: n=%d min=%.4g p50=%.4g p99=%.4g max=%.4g %s", name, s.n, s.min, s.median(), s.quantile(0.99), s.max, unit)
}

// finish folds operation counts and checks into the verdict.
func (r *runReport) finish(replays []*onlineResult, checks ...[]check) {
	for _, on := range replays {
		r.Attempted += int(on.ops.attempted.Load())
		r.Failed += int(on.ops.failed.Load())
		if on.ops.first != "" {
			r.notef("first failed operation: %s", on.ops.first)
		}
		checks = append(checks, on.checks)
	}
	for _, cs := range checks {
		for _, c := range cs {
			r.Checks = append(r.Checks, c)
			r.Attempted++
			if !c.OK {
				r.Failed++
			}
		}
	}
	r.Correct = r.Failed == 0
}

func (r *runReport) print(w io.Writer) {
	mode, defs := "untraced", userFacing
	if r.Trace {
		mode, defs = "traced", tracedDefs()
	}
	load := "offline, no clients"
	if r.Clients > 0 {
		load = fmt.Sprintf("closed loop, %d client(s), one connection each", r.Clients)
	}
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g  %s, %s ==\n", r.Workload, r.Seed, r.Seconds, mode, load)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue // does not apply to this workload
		}
		gate := ""
		if !r.Trace && d.Demoted {
			gate = "(demoted: not gated)"
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.Name, m.Value, m.Unit, gate)
	}
	tw.Flush()
	failed := 0
	for _, c := range r.Checks {
		if !c.OK {
			failed++
			fmt.Fprintf(w, "  CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  checks: %d passed, %d failed; operations: %d attempted, %d failed\n",
		len(r.Checks)-failed, failed, r.Attempted, r.Failed)
}

// runWorkload runs one workload once, untraced or traced, at the size
// -seconds asks for.
func runWorkload(ctx context.Context, o options, w workloadSpec, dir string) (*runReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runReport{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace != 0, Clients: clients()}
	scale := o.seconds / fullSizeSeconds
	var values map[string]float64
	var err error
	defs := measuredBy(w)
	switch {
	case r.Trace:
		r.Clients, defs = 1, tracedDefs()
		values, err = runTraced(ctx, o, w, scale*traceScale, dir, r)
	case w.Online != nil:
		values, err = untracedOnline(ctx, o, w.Online.scaled(scale), dir, r)
	default:
		r.Clients = 0
		values, err = untracedOffline(ctx, o, w.Name, w.Offline.scaled(scale), r)
	}
	if err != nil {
		return nil, err
	}
	r.Metrics, err = render(defs, values)
	return r, err
}

// setup_s is the median over a run's set-ups: at least minSetUps of
// them, and more — up to maxSetUps — until setUpFloor has been spent, so
// that a 30 ms set-up is not judged on three samples. The trace cache is
// dropped before each so every set-up pays for world generation; the
// last set-up is the one the run uses.
const (
	minSetUps  = 3
	maxSetUps  = 9
	setUpFloor = time.Second
)

// repeatSetUp calls setUp, which returns how long the set-up itself
// took, and returns every set-up's seconds.
func repeatSetUp(setUp func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	var spent time.Duration
	for i := 0; i < minSetUps || i < maxSetUps && spent < setUpFloor; i++ {
		simgrid.ResetCache()
		d, err := setUp()
		if err != nil {
			return nil, err
		}
		spent += d
		out = append(out, d.Seconds())
	}
	return out, nil
}

// untracedOnline measures an online workload: set-up, then the replay
// with the closed loop of clients().
func untracedOnline(ctx context.Context, o options, spec onlineSpec, dir string, r *runReport) (map[string]float64, error) {
	r.notef("%v; %d slots per region, horizon %d h, jobs ≤ %d h with slack %d", spec, spec.Slots, spec.Horizon, spec.MaxLength, spec.Slack)
	var on *onlineSetup
	setups, err := repeatSetUp(func() (time.Duration, error) {
		if on != nil {
			if err := on.close(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		on, err = setupOnline(ctx, spec, o.seed, dir, nil)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	defer on.close()
	r.noteSamples("setup", summarize(setups), "s")

	res, err := on.replay(ctx, clients())
	if err != nil {
		return nil, err
	}
	r.finish([]*onlineResult{res})
	res.note(r)
	values := res.userFacing()
	values["setup_s"] = median(setups)
	values["heap_mb"] = res.heapMB
	return values, nil
}

// untracedOffline measures offline_paper: set-up, every experiment, the
// oracle, and the golden digest.
func untracedOffline(ctx context.Context, o options, name string, spec offlineSpec, r *runReport) (map[string]float64, error) {
	if o.labRegions > 0 {
		spec.LabRegions = o.labRegions
	}
	r.notef("%v on %d regions", spec, len(catalog(spec.Oracle.Regions)))
	var off *offlineSetup
	setups, err := repeatSetUp(func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		off, err = setupOffline(ctx, spec, o.seed)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	r.noteSamples("setup", summarize(setups), "s")

	res, err := off.run(ctx)
	if err != nil {
		return nil, err
	}
	heap := heapMB() // what the offline part holds on to: the lab's dataset, the oracle's world and stream
	runtime.KeepAlive(off)
	if err := res.checkGolden(goldenKey(name, o), o.updateGolden, r); err != nil {
		return nil, err
	}
	r.finish(nil, res.checks)
	res.note(r)
	values := res.userFacing()
	values["setup_s"] = median(setups)
	values["heap_mb"] = heap
	return values, nil
}

// traceScale shrinks the traced run: it replays the online part twice
// with one client (spans off, then on — the difference is the tracing
// overhead), runs every direct-call probe and then the offline part.
const traceScale = 0.25

// runTraced is the per-layer run. BENCHMARK.json's per_layer list is
// one list that every traced run reports in full, so the part the
// workload does not have is stood in for by its canary (spec.go).
func runTraced(ctx context.Context, o options, w workloadSpec, scale float64, dir string, r *runReport) (map[string]float64, error) {
	online, offline := canaryOnline, canaryOffline
	if w.Online != nil {
		online = *w.Online
	} else {
		offline = *w.Offline
	}
	online, offline = online.scaled(scale), offline.scaled(scale)
	if o.labRegions > 0 {
		offline.LabRegions = min(offline.LabRegions, o.labRegions)
	}
	r.notef("traced run, sizes × %g: online %v; offline %v", traceScale, online, offline)

	simgrid.ResetCache()
	base, err := setupOnline(ctx, online, o.seed, dir, nil)
	if err != nil {
		return nil, err
	}
	defer base.close()
	baseRes, err := base.replay(ctx, 1)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	on, err := setupOnline(ctx, online, o.seed, dir, rec)
	if err != nil {
		return nil, err
	}
	defer on.close()
	requests := firstRequests(on.hours, 2048)
	res, err := on.replay(ctx, 1)
	if err != nil {
		return nil, err
	}
	if err := rec.writeTo(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, o.seed))); err != nil {
		return nil, err
	}

	probe := &layerProbe{
		spec: online, seed: o.seed, world: on.world, jobs: on.jobs, requests: requests,
		captured: on.rig.nodes[0].captured, generateHours: scaleInt(8760, scale, 168),
		dir: filepath.Join(dir, "probe"), out: map[string]float64{},
	}
	refLogs, err := probe.run(ctx)
	if err != nil {
		return nil, err
	}
	placement := checkPlacements(on.rig.nodes, refLogs)
	off, err := setupOffline(ctx, offline, o.seed)
	if err != nil {
		return nil, err
	}
	offRes, err := off.run(ctx)
	if err != nil {
		return nil, err
	}
	if w.Offline != nil {
		if err := offRes.checkGolden(goldenKey(w.Name, o), o.updateGolden, r); err != nil {
			return nil, err
		}
	}

	out := probe.out
	// The demoted user-facing metrics: the spans-off replay's and the
	// offline part's, at this run's size and with its one client.
	for _, values := range []map[string]float64{baseRes.userFacing(), offRes.userFacing()} {
		for name, v := range values {
			out[name] = v
		}
	}
	handlerCall, budgetNote, budget := rec.layerMetrics(out, online.Policy == "fifo")
	r.notef("%s", budgetNote)
	res.layerMetrics(out)
	// One handler call = decode + admit + fleet submit (the twin's time)
	// plus one fsync wait; whatever is left is the budget's honesty row.
	out["schedd.handler_unattributed_us_p50"] = handlerCall - out["schedd.handler_nowal_us_p50"] - 1e3*out["wal.fsync_ms_mean"]
	out["trace.overhead_frac"] = 1 - res.jobsPerSecond()/baseRes.jobsPerSecond()
	for _, id := range append([]string{"rest"}, namedExperiments...) {
		out["core.exp_s."+id] = offRes.expWall[id].Seconds()
	}
	out["engine.cpu_util"] = offRes.cpuUtil
	for name, d := range offRes.runWall {
		out["sched.run_s."+name] = d.Seconds()
	}

	r.notef("one client: untraced %.0f jobs/s, traced %.0f jobs/s; write %.2fs of which bare-fleet Step %.2fs (%.0f%%), fsync wait %.2fs (%.0f%%)",
		baseRes.jobsPerSecond(), res.jobsPerSecond(), res.writeWall.Seconds(),
		out["sched.step_total_s"], 100*out["sched.step_total_s"]/res.writeWall.Seconds(),
		res.counters.fsyncSeconds, 100*res.counters.fsyncSeconds/res.writeWall.Seconds())
	r.finish([]*onlineResult{baseRes, res}, placement, offRes.checks, budget)
	return out, nil
}

// firstRequests copies the first n submit requests out of the hourly
// schedule (the replay releases each hour's slice once sent).
func firstRequests(hours [][][]schedd.JobRequest, n int) [][]schedd.JobRequest {
	var out [][]schedd.JobRequest
	for _, h := range hours {
		for _, req := range h {
			if len(out) == n {
				return out
			}
			out = append(out, req)
		}
	}
	return out
}

// ledger is the machine-readable record of a set of runs.
type ledger struct {
	Runs []runReport `json:"runs"`
}

func (l ledger) write(path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readLedger reads one ledger file, or — given a directory — every
// runs.json below it as one ledger: the paired-run recipe leaves one per
// invocation.
func readLedger(path string) (ledger, error) {
	var l ledger
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || p != path && d.Name() != "runs.json" {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var one ledger
		if err := json.Unmarshal(data, &one); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		l.Runs = append(l.Runs, one.Runs...)
		return nil
	})
	return l, err
}

// valuesOf collects the untraced runs' values per workload and metric.
func (l ledger) valuesOf() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range l.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}
