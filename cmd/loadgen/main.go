// Command loadgen benchmarks a running schedd instance: it replays a
// deterministic, workload-derived job stream against the service at a
// configurable rate with concurrent submitters, then reports achieved
// throughput, submit-latency percentiles (nearest-rank, so small
// samples never under-report the tail), and the carbon outcome of the
// server's policy against an offline FIFO baseline over the exact same
// jobs and trace.
//
// Usage:
//
//	schedd -addr :9090 -policy carbon-gate &      # the system under test
//	loadgen -url http://localhost:9090 -jobs 5000 -submitters 8
//	loadgen -jobs 50000 -batch 100 -rate 0        # full throttle, batched
//	loadgen -jobs 50000 -batch 100 -binary        # CRC-framed binary batches
//	loadgen -jobs 20000 -profile bursty           # arrival bursts
//	loadgen -jobs 10000 -report-every 2s -scrape  # progress + /metrics check
//
// -report-every prints a progress line to stderr at the given interval
// while submitting. -scrape fetches the server's /metrics after the
// run, asserts the exposition parses and that its scheduling counters
// agree with both this run's acknowledgements and /v1/stats, and
// prints machine-readable scrape_*= lines — the CI end-to-end smoke
// runs on it.
//
// The -profile flag selects a scenario shape: steady (the default
// uniform stream), bursty (traffic arrives in dense bursts separated
// by idle gaps), diurnal (the dispatch rate swings sinusoidally, a
// day-night cycle compressed onto the run), migratable-heavy (a
// flexibility-rich mix — mostly migratable, interruptible, generously
// slacked jobs — the best case for spatial policies), and multitenant
// (a Zipf-shared tenant mix matching examples/tenants/multitenant.json
// plus one deliberately abusive tenant, driven against a schedd
// started with -tenants; its 429 rejections and the other tenants'
// clean per-tenant counters are printed as tenant_*= lines). Profiles
// adjust only defaults and pacing; explicitly-set mix flags always
// win.
//
// The stream is seeded via internal/rng and jobs carry explicit ids
// (their stream index plus -id-offset), so two loadgen runs with the
// same flags submit identical jobs and the offline baseline
// reconstructs exactly what the server admitted.
//
// Against a replicated deployment, -endpoints takes the comma-
// separated base URLs of every replica and drives the failover client:
// writes sent to a follower are 421-redirected to its primary, dead
// endpoints are skipped, and a promotion mid-run is survived without
// losing the stream — pair sequential runs with -id-offset so their id
// ranges never collide.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	neturl "net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/metrics"
	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/stats"
	"carbonshift/internal/tracing"
	"carbonshift/internal/workload"
)

// submission records one acknowledged request.
type submission struct {
	ids     []int
	arrival int
}

// maxRetryAfterPause caps how long a submitter sleeps on a server
// Retry-After hint. Quota windows are real fleet hours; honoring one
// literally would park the benchmark, so the hint is respected in
// direction but bounded in magnitude.
const maxRetryAfterPause = 2 * time.Second

func main() {
	var (
		url           = flag.String("url", "http://localhost:9090", "schedd base URL")
		endpoints     = flag.String("endpoints", "", "comma-separated schedd base URLs; enables the failover client (dead endpoints are skipped, follower 421s redirect to the primary hint). Overrides -url")
		idOffset      = flag.Int("id-offset", 0, "offset added to every generated job id, so sequential runs against one server never collide")
		jobs          = flag.Int("jobs", 1000, "total jobs to submit")
		rate          = flag.Float64("rate", 0, "target submission rate in jobs/sec (0 = unlimited)")
		submitters    = flag.Int("submitters", 8, "concurrent submitter goroutines")
		batch         = flag.Int("batch", 1, "jobs per submission request")
		binaryProto   = flag.Bool("binary", false, "submit over the binary batch protocol (POST /v1/jobs/batch, CRC-framed) instead of JSON")
		seed          = flag.Uint64("seed", 1, "workload stream seed")
		dist          = flag.String("dist", "azure", "job-length distribution: equal, azure, google")
		slack         = flag.Int("slack", 48, "per-job slack in hours")
		interruptible = flag.Float64("interruptible", 0.8, "fraction of interruptible jobs")
		migratable    = flag.Float64("migratable", 0.6, "fraction of migratable jobs")
		maxLen        = flag.Int("max-length", 48, "cap on job length in hours")
		wait          = flag.Duration("wait", 0, "after submitting, poll until all jobs resolve (0 = don't wait)")
		baseline      = flag.Bool("baseline", true, "compute the offline FIFO baseline for the submitted jobs")
		profileName   = flag.String("profile", "steady", "scenario profile: "+profileNames())
		reportEvery   = flag.Duration("report-every", 0, "print a progress line to stderr at this interval while submitting (0 = off)")
		scrape        = flag.Bool("scrape", false, "after the run, scrape the server's /metrics and assert it parses and agrees with the run and /v1/stats; exits non-zero on mismatch")
		slowest       = flag.Int("slowest", 0, "mint a sampled traceparent per request, then fetch the server's /debug/traces and print the N slowest submit traces as span waterfalls (0 = off)")
	)
	flag.Parse()

	prof, err := profileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	// Profile mix presets are defaults: a flag the user set explicitly
	// always wins over the profile.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if prof.interruptible >= 0 && !explicit["interruptible"] {
		*interruptible = prof.interruptible
	}
	if prof.migratable >= 0 && !explicit["migratable"] {
		*migratable = prof.migratable
	}
	if prof.slackScale > 0 && !explicit["slack"] {
		*slack = int(float64(*slack) * prof.slackScale)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var client *schedd.Client
	var err2 error
	if *endpoints != "" {
		var urls []string
		for _, u := range strings.Split(*endpoints, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		client, err2 = schedd.NewFailoverClient(urls, nil)
	} else {
		client, err2 = schedd.NewClient(*url, nil)
	}
	if err2 != nil {
		fatal(err2)
	}
	info, err := client.Stats(ctx)
	if err != nil {
		fatal(fmt.Errorf("fetching server config: %w", err))
	}
	if len(info.Clusters) == 0 {
		fatal(fmt.Errorf("server reports no clusters"))
	}
	origins := make([]string, len(info.Clusters))
	for i, c := range info.Clusters {
		origins[i] = c.Region
	}
	fmt.Fprintf(os.Stderr, "loadgen: target %s policy=%s regions=%v horizon=%dh profile=%s\n",
		client.Endpoint(), info.Policy, origins, info.Horizon, prof.name)

	distribution, err := pickDist(*dist)
	if err != nil {
		fatal(err)
	}

	// The deterministic job stream: lengths from the chosen trace-derived
	// distribution, origins cycled through the server's clusters, ids
	// fixed to the stream index.
	src := rng.New(*seed)
	requests := make([]schedd.JobRequest, *jobs)
	for i := range requests {
		length := distribution.Sample(src)
		if length > *maxLen {
			length = *maxLen
		}
		id := i + *idOffset
		requests[i] = schedd.JobRequest{
			ID:            &id,
			Origin:        origins[src.Intn(len(origins))],
			LengthHours:   length,
			SlackHours:    *slack,
			Interruptible: src.Float64() < *interruptible,
			Migratable:    src.Float64() < *migratable,
		}
	}
	// Tenant identity is assigned per chunk, not per job: a batch is
	// admitted atomically, so a mixed-tenant chunk would let one abusive
	// tenant's 429 reject innocent tenants' jobs riding in the same
	// request — exactly the cross-tenant interference the profile exists
	// to disprove.
	if prof.tenantFor != nil {
		for lo, chunk := 0, 0; lo < len(requests); lo, chunk = lo+*batch, chunk+1 {
			hi := lo + *batch
			if hi > len(requests) {
				hi = len(requests)
			}
			name := prof.tenantFor(chunk)
			for i := lo; i < hi; i++ {
				requests[i].Tenant = name
			}
		}
	}

	// With -slowest, every request carries a sampled traceparent: the
	// server records each submit into its trace ring, and the post-run
	// fetch can rank them. The local ring is irrelevant — the tracer
	// exists to mint propagable trace context.
	var tracer *tracing.Tracer
	if *slowest > 0 {
		tracer = tracing.New(tracing.Config{SampleEvery: 1, RingSize: 1})
	}

	// Fan the stream across concurrent submitters. Each request carries
	// up to -batch jobs; a shared ticker paces the global rate.
	var (
		reqCh        = make(chan []schedd.JobRequest, *submitters)
		mu           sync.Mutex
		subs         []submission
		lats         []float64
		errorsN      int
		partials     int                // gateway 207s: batches only partially admitted
		backoffHints int                // rejections that carried a Retry-After hint
		acked        = map[string]int{} // per-tenant acknowledged jobs
		rejected     = map[string]int{} // per-tenant jobs rejected with 429
		wg           sync.WaitGroup
	)
	var throttle <-chan time.Time
	if *rate > 0 {
		interval := time.Duration(float64(time.Second) * float64(*batch) / *rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		throttle = tick.C
	}

	start := time.Now()
	// The periodic progress line: without it a long run is silent until
	// the final report, which reads as a hang. Counters are sampled
	// under the same mutex the submitters update them under.
	reportDone := make(chan struct{})
	if *reportEvery > 0 {
		go func() {
			tick := time.NewTicker(*reportEvery)
			defer tick.Stop()
			for {
				select {
				case <-reportDone:
					return
				case <-tick.C:
				}
				mu.Lock()
				n, failed := 0, errorsN
				for _, s := range subs {
					n += len(s.ids)
				}
				mu.Unlock()
				elapsed := time.Since(start).Seconds()
				fmt.Fprintf(os.Stderr, "loadgen: progress %d/%d jobs submitted, %d failed requests, %.0f jobs/s, %.1fs elapsed\n",
					n, *jobs, failed, float64(n)/elapsed, elapsed)
			}
		}()
	}
	// The wire protocol is a strategy swap: Submit and SubmitBatch share
	// a signature and admission semantics, differing only in codec.
	submit := client.Submit
	if *binaryProto {
		submit = client.SubmitBatch
	}
	for w := 0; w < *submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range reqCh {
				if throttle != nil {
					select {
					case <-throttle:
					case <-ctx.Done():
						return
					}
				}
				t0 := time.Now()
				cctx := ctx
				var sp *tracing.Span
				if tracer != nil {
					cctx, sp = tracer.StartRoot(ctx, "loadgen.submit")
				}
				ack, err := submit(cctx, chunk...)
				sp.End()
				elapsed := time.Since(t0)
				backoff := 0
				var pe *schedd.PartialError
				mu.Lock()
				switch {
				case err == nil:
					subs = append(subs, submission{ids: ack.IDs, arrival: ack.ArrivalHour})
					lats = append(lats, elapsed.Seconds()*1000)
					acked[chunk[0].Tenant] += len(ack.IDs)
				case errors.As(err, &pe):
					// A gateway split the batch and only part of it was
					// admitted (207): count exactly the acked ids — never
					// the whole chunk — so a partial outcome can neither
					// lose nor double-count a job.
					partials++
					ids := pe.AckedIDs()
					subs = append(subs, submission{ids: ids, arrival: pe.Resp.ArrivalHour})
					lats = append(lats, elapsed.Seconds()*1000)
					acked[chunk[0].Tenant] += len(ids)
					backoff = pe.MaxRetryAfter()
				case httpx.StatusCodeOf(err) == http.StatusTooManyRequests && prof.tenantFor != nil:
					// Per-tenant quota/rate rejection: for the multitenant
					// profile this is expected signal (the abusive tenant is
					// SUPPOSED to be throttled), tallied per tenant instead of
					// counting as a failed request.
					rejected[chunk[0].Tenant] += len(chunk)
					backoff = httpx.RetryAfterOf(err)
				default:
					errorsN++
					backoff = httpx.RetryAfterOf(err)
				}
				if backoff > 0 {
					backoffHints++
				}
				mu.Unlock()
				if backoff > 0 {
					// Honor the server's Retry-After hint, capped so a
					// quota window measured in real hours cannot stall
					// the benchmark.
					d := time.Duration(backoff) * time.Second
					if d > maxRetryAfterPause {
						d = maxRetryAfterPause
					}
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
				}
			}
		}()
	}
	totalChunks := (len(requests) + *batch - 1) / *batch
	for lo, chunk := 0, 0; lo < len(requests); lo, chunk = lo+*batch, chunk+1 {
		hi := lo + *batch
		if hi > len(requests) {
			hi = len(requests)
		}
		if prof.delay != nil {
			if d := prof.delay(chunk, totalChunks); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
		select {
		case reqCh <- requests[lo:hi]:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(reqCh)
	wg.Wait()
	close(reportDone)
	wall := time.Since(start)

	submitted := 0
	for _, s := range subs {
		submitted += len(s.ids)
	}
	fmt.Printf("submitted        %d/%d jobs in %.2fs (%d failed requests)\n",
		submitted, *jobs, wall.Seconds(), errorsN)
	if submitted == 0 {
		fatal(fmt.Errorf("no jobs admitted"))
	}
	perSec := float64(submitted) / wall.Seconds()
	fmt.Printf("throughput       %.0f jobs/s (%.0f jobs/min)\n", perSec, perSec*60)
	// The bench-comparable line: the jobs/s figure go run ./bench
	// reports as jobs_per_s, in a stable machine-readable form that
	// the CI end-to-end smoke greps and archives.
	fmt.Printf("bench_jobs_per_sec=%d\n", int(perSec))
	fmt.Printf("retry_after_hints=%d\n", backoffHints)
	fmt.Printf("partial_batches=%d\n", partials)
	p50, p95, p99, max := latencySummary(lats)
	fmt.Printf("submit latency   p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms (per request, batch=%d)\n",
		p50, p95, p99, max, *batch)

	if *wait > 0 {
		deadline := time.Now().Add(*wait)
		for {
			st, err := client.Stats(ctx)
			if err != nil {
				fatal(err)
			}
			if st.Unresolved == 0 || time.Now().After(deadline) || ctx.Err() != nil {
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
	}

	final, err := client.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("server           policy=%s hour=%d completed=%d missed=%d queued=%d emissions=%.1fkg util=%.1f%%\n",
		final.Policy, final.Hour, final.Completed, final.Missed, final.QueueDepth,
		final.TotalEmissionsG/1000, 100*final.Utilization)

	if prof.tenantFor != nil {
		// Per-tenant outcome, client-side counters first, then the
		// server's own per-tenant stats — the machine-readable lines the
		// CI multitenant leg asserts on (abusive tenant rejected, everyone
		// else clean).
		names := map[string]bool{}
		for n := range acked {
			names[n] = true
		}
		for n := range rejected {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			fmt.Printf("tenant_acked_%s=%d\n", n, acked[n])
			fmt.Printf("tenant_rejected429_%s=%d\n", n, rejected[n])
		}
		for _, e := range final.Tenants {
			fmt.Printf("tenant_server_%s_submitted=%d missed=%d class=%s\n",
				e.Name, e.Submitted, e.Missed, e.Class)
		}
	}

	if *scrape {
		if err := scrapeAndAssert(ctx, client, submitted, final); err != nil {
			fatal(fmt.Errorf("scrape: %w", err))
		}
	}

	if *slowest > 0 {
		route := "POST /v1/jobs"
		if *binaryProto {
			route = "POST /v1/jobs/batch"
		}
		if err := printSlowest(ctx, client, *slowest, route); err != nil {
			fatal(fmt.Errorf("slowest: %w", err))
		}
	}

	if !*baseline {
		return
	}
	// Offline FIFO baseline: re-simulate the exact jobs the server
	// admitted — same trace (reconstructed from the server's seed and
	// clusters), same arrival hours — under the carbon-agnostic policy.
	fifoKg, err := fifoBaseline(ctx, info, requests, subs, *idOffset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: baseline unavailable: %v\n", err)
		return
	}
	if final.Unresolved > 0 {
		// The server's emissions only cover work executed so far; a
		// savings percentage against the run-to-completion baseline
		// would overstate the policy. Report the baseline alone.
		fmt.Printf("fifo baseline    %.1fkg (run to completion); server still has %d unresolved jobs — rerun with a longer -wait for a comparable saving\n",
			fifoKg, final.Unresolved)
		return
	}
	saving := 0.0
	if fifoKg > 0 {
		saving = 100 * (fifoKg - final.TotalEmissionsG/1000) / fifoKg
	}
	fmt.Printf("fifo baseline    %.1fkg; %s saves %.1f%% (positive = greener than FIFO)\n",
		fifoKg, final.Policy, saving)
}

// fifoBaseline rebuilds the admitted jobs from the acknowledgements
// (each id is idOffset plus the index into the generated stream) and
// runs the batch simulator under FIFO on the server's own trace
// configuration.
func fifoBaseline(ctx context.Context, info schedd.StatsResponse,
	requests []schedd.JobRequest, subs []submission, idOffset int) (float64, error) {
	var regs []regions.Region
	var clusters []sched.Cluster
	for _, c := range info.Clusters {
		r, ok := regions.ByCode(c.Region)
		if !ok {
			return 0, fmt.Errorf("server region %q not in catalog", c.Region)
		}
		regs = append(regs, r)
		clusters = append(clusters, sched.Cluster{Region: c.Region, Slots: c.Slots})
	}
	set, err := simgrid.GenerateCached(ctx, regs, simgrid.Config{Seed: info.Seed, Hours: info.Horizon}, 0)
	if err != nil {
		return 0, err
	}
	var jobs []sched.Job
	for _, s := range subs {
		for _, id := range s.ids {
			if id < idOffset || id-idOffset >= len(requests) {
				return 0, fmt.Errorf("server acknowledged unknown job id %d", id)
			}
			r := requests[id-idOffset]
			jobs = append(jobs, sched.Job{
				ID:            id,
				Origin:        r.Origin,
				Arrival:       s.arrival,
				Length:        r.LengthHours,
				Slack:         r.SlackHours,
				Interruptible: r.Interruptible,
				Migratable:    r.Migratable,
			})
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Arrival != jobs[b].Arrival {
			return jobs[a].Arrival < jobs[b].Arrival
		}
		return jobs[a].ID < jobs[b].ID
	})
	res, err := sched.Run(set, clusters, jobs, sched.FIFO{}, info.Horizon)
	if err != nil {
		return 0, err
	}
	return res.TotalEmissions / 1000, nil
}

// scrapeAndAssert fetches the target's /metrics, checks the exposition
// parses, and asserts the scheduling counters agree with both this
// run's acknowledgements and the /v1/stats snapshot taken just before
// — the live half of the parity the schedd unit tests pin. Key values
// are echoed in machine-readable scrape_*= lines for the CI e2e legs.
func scrapeAndAssert(ctx context.Context, client *schedd.Client, submitted int, final schedd.StatsResponse) error {
	resp, err := httpx.Do(ctx, nil, http.MethodGet, client.Endpoint()+"/metrics", "", nil, "GET /metrics")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.Decode("GET /metrics", nil)
	}
	sc, err := metrics.ParseText(bytes.NewReader(resp.Body))
	if err != nil {
		return fmt.Errorf("exposition does not parse: %w", err)
	}

	total, ok := sc.Samples["schedd_jobs_submitted_total"]
	if !ok {
		return fmt.Errorf("schedd_jobs_submitted_total missing from /metrics")
	}
	// The metric counts every admission the server ever saw (earlier
	// runs and recovered jobs included), so it bounds this run's count
	// from above and must equal the adjacent stats snapshot exactly:
	// both read the same fleet counter and no submitter is running.
	if int(total) < submitted {
		return fmt.Errorf("schedd_jobs_submitted_total=%d < %d jobs this run acknowledged", int(total), submitted)
	}
	if int(total) != final.Submitted {
		return fmt.Errorf("schedd_jobs_submitted_total=%d but /v1/stats submitted=%d", int(total), final.Submitted)
	}
	lag, ok := sc.Samples["schedd_replication_lag_hours"]
	if !ok {
		return fmt.Errorf("schedd_replication_lag_hours missing from /metrics")
	}
	// On a multi-tenant server, the per-tenant submission gauges must be
	// present and sum to the stats block's per-tenant total — unlisted
	// tenants aggregate under tenant="other", so the sums still match.
	if len(final.Tenants) > 0 {
		statsSum := 0
		for _, e := range final.Tenants {
			statsSum += e.Submitted
		}
		metricSum, series := 0.0, 0
		for k, v := range sc.Samples {
			if strings.HasPrefix(k, "schedd_tenant_jobs_submitted{") {
				metricSum += v
				series++
			}
		}
		if series == 0 {
			return fmt.Errorf("schedd_tenant_jobs_submitted missing from /metrics despite %d tenants in /v1/stats", len(final.Tenants))
		}
		if int(metricSum) != statsSum {
			return fmt.Errorf("schedd_tenant_jobs_submitted sums to %d but /v1/stats tenants sum to %d", int(metricSum), statsSum)
		}
		fmt.Printf("scrape_tenant_submitted_total=%d\n", int(metricSum))
		fmt.Printf("scrape_tenant_series=%d\n", series)
	}
	fmt.Printf("scrape_submitted_total=%d\n", int(total))
	fmt.Printf("scrape_replication_lag_hours=%d\n", int(lag))
	if v, ok := sc.Samples[`schedd_backpressure_total{reason="queue_full"}`]; ok {
		fmt.Printf("scrape_backpressure_queue_full=%d\n", int(v))
	}
	if c := sc.Sum("wal_fsync_seconds_count"); c > 0 {
		fmt.Printf("scrape_wal_fsyncs=%d\n", int(c))
	}
	fmt.Printf("scrape_ok=1 (%d series)\n", len(sc.Samples))
	return nil
}

// printSlowest fetches the server's trace ring, ranks this run's
// submit traces by duration, and prints the n slowest as span
// waterfalls — the "p99 is high, show me why" tool. The route filter
// keeps only this run's submit roots (JSON or binary), so stats polls
// and scrapes never rank. Ends with a machine-readable
// trace_slowest_ms= line the CI e2e leg greps.
func printSlowest(ctx context.Context, client *schedd.Client, n int, route string) error {
	resp, err := httpx.Do(ctx, nil, http.MethodGet,
		client.Endpoint()+"/debug/traces?route="+neturl.QueryEscape(route)+"&limit=1000000", "", nil, "GET /debug/traces")
	if err != nil {
		return err
	}
	var dump tracing.Dump
	if err := resp.Decode("GET /debug/traces", &dump); err != nil {
		return err
	}
	if len(dump.Traces) == 0 {
		return fmt.Errorf("server holds no submit traces (was it started with tracing disabled?)")
	}
	sort.Slice(dump.Traces, func(a, b int) bool {
		return dump.Traces[a].DurationMS > dump.Traces[b].DurationMS
	})
	if n > len(dump.Traces) {
		n = len(dump.Traces)
	}
	fmt.Printf("slowest %d of %d sampled submit traces\n", n, len(dump.Traces))
	for _, td := range dump.Traces[:n] {
		fmt.Printf("trace %s  %s  %.2fms\n", td.TraceID, td.Root, td.DurationMS)
		for _, sp := range td.Spans {
			var attrs strings.Builder
			for _, a := range sp.Attrs {
				fmt.Fprintf(&attrs, " %s=%s", a.Key, a.Value)
			}
			fmt.Printf("  +%8.2fms %9.2fms  %s%s\n",
				float64(sp.Start.Sub(td.Start))/float64(time.Millisecond),
				sp.DurationMS, sp.Name, attrs.String())
		}
		if td.DroppedSpans > 0 {
			fmt.Printf("  (%d spans dropped)\n", td.DroppedSpans)
		}
	}
	fmt.Printf("trace_slowest_ms=%.2f\n", dump.Traces[0].DurationMS)
	return nil
}

// latencySummary reports the nearest-rank p50/p95/p99 and the max of a
// millisecond latency sample. Nearest-rank (ceil(p/100·n), 1-based)
// always returns an observed request's latency; the previous
// interpolating estimator under-reported the p99 whenever fewer than
// ~100 requests were sampled. Extracted so the definition is unit
// testable.
func latencySummary(lats []float64) (p50, p95, p99, max float64) {
	sort.Float64s(lats)
	return stats.NearestRankSorted(lats, 50), stats.NearestRankSorted(lats, 95),
		stats.NearestRankSorted(lats, 99), lats[len(lats)-1]
}

// scenarioProfile shapes the generated scenario: mix presets (negative
// means "leave the flag default alone") and a deterministic pacing
// delay injected before dispatching each chunk of requests.
type scenarioProfile struct {
	name          string
	interruptible float64
	migratable    float64
	slackScale    float64
	delay         func(chunk, totalChunks int) time.Duration
	// tenantFor, when set, names the tenant for every job in the given
	// chunk (chunks are single-tenant because batches admit atomically).
	// Called once per chunk in dispatch order, so stateful closures stay
	// deterministic.
	tenantFor func(chunk int) string
}

func profileByName(name string) (scenarioProfile, error) {
	switch name {
	case "steady":
		// The uniform stream: no pacing structure, flag-default mix.
		return scenarioProfile{name: name, interruptible: -1, migratable: -1}, nil
	case "bursty":
		// Dense bursts separated by idle gaps: every 10th chunk pauses,
		// so queue depth saws between backlog and drain — the admission
		// and backpressure stress shape.
		return scenarioProfile{
			name: name, interruptible: -1, migratable: -1,
			delay: func(chunk, _ int) time.Duration {
				if chunk > 0 && chunk%10 == 0 {
					return 250 * time.Millisecond
				}
				return 0
			},
		}, nil
	case "diurnal":
		// A day-night cycle compressed onto the run: the inter-chunk
		// delay swings sinusoidally over four full periods, peaking at
		// 40ms per chunk in the "night" troughs.
		return scenarioProfile{
			name: name, interruptible: -1, migratable: -1,
			delay: func(chunk, total int) time.Duration {
				if total < 2 {
					return 0
				}
				phase := 2 * math.Pi * 4 * float64(chunk) / float64(total)
				return time.Duration(20 * (1 + math.Sin(phase)) * float64(time.Millisecond))
			},
		}, nil
	case "migratable-heavy":
		// The flexibility-rich mix the paper's spatial shifting wants:
		// almost everything can move and pause, with doubled slack.
		return scenarioProfile{name: name, interruptible: 0.9, migratable: 0.95, slackScale: 2}, nil
	case "multitenant":
		// Zipf-shaped tenant shares (8:4:2:1:1) over the registry in
		// examples/tenants/multitenant.json, plus "noisy" — a tenant the
		// registry does NOT declare, so it lands on the catch-all's tight
		// quota and rate limits. Run against a schedd started with
		// -tenants: noisy's submissions draw 429s (tenant_rejected429_*
		// lines prove it) while the declared tenants ride at baseline —
		// the load-level demonstration of per-tenant isolation.
		mix := []struct {
			name  string
			share int
		}{{"web", 8}, {"pipeline", 4}, {"research", 2}, {"spot", 1}, {"noisy", 1}}
		total := 0
		for _, m := range mix {
			total += m.share
		}
		tenantSrc := rng.New(97)
		return scenarioProfile{
			name: name, interruptible: -1, migratable: -1,
			tenantFor: func(int) string {
				n := tenantSrc.Intn(total)
				for _, m := range mix {
					if n -= m.share; n < 0 {
						return m.name
					}
				}
				return mix[0].name
			},
		}, nil
	default:
		return scenarioProfile{}, fmt.Errorf("unknown profile %q (have %s)", name, profileNames())
	}
}

func profileNames() string { return "steady, bursty, diurnal, migratable-heavy, multitenant" }

func pickDist(name string) (workload.Distribution, error) {
	switch name {
	case "equal":
		return workload.DistEqual, nil
	case "azure":
		return workload.DistAzure, nil
	case "google":
		return workload.DistGoogle, nil
	default:
		return workload.Distribution{}, fmt.Errorf("unknown distribution %q (have equal, azure, google)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
