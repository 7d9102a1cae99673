// Command schedd runs the online carbon-aware scheduling service: jobs
// submitted over HTTP are placed by the selected policy against the
// replayed grid, with the same engine — and byte-identical decisions —
// as the batch simulation of `carbonlimits -exp policies`.
//
// Usage:
//
//	schedd -addr :9090 -regions DE,SE,US-CA -policy carbon-gate
//	curl -X POST localhost:9090/v1/jobs -d '{"origin":"DE","length_hours":6,"slack_hours":24,"interruptible":true}'
//	curl localhost:9090/v1/jobs/0
//	curl localhost:9090/v1/stats
//	curl localhost:9090/metrics
//
// High-rate submitters can use POST /v1/jobs/batch instead of the JSON
// route: a CRC-framed binary batch (content type
// application/x-carbonshift-batch, encoded by the Go client's
// SubmitBatch or loadgen -binary) admits the whole batch under one
// admission section and one group-commit journal append, with
// placements identical to the JSON path.
//
// GET /metrics serves the full instrumentation surface in Prometheus
// text format — scheduling counters, submit/step latency histograms,
// WAL fsync timings, replication lag — ready to scrape with the config
// in examples/dashboard/; docs/OBSERVABILITY.md documents every
// family.
//
// With -tenants the scheduler is multi-tenant: submissions carry a
// "tenant" field, admission enforces per-tenant hourly quotas and
// token-bucket rates (429 Too Many Requests), and slots are granted by
// weighted-fair queueing over priority classes (interactive, batch,
// scavenger). /v1/stats grows a per-tenant block and /metrics the
// schedd_tenant_* families:
//
//	schedd -tenants examples/tenants/multitenant.json
//	curl -X POST localhost:9090/v1/jobs -d '{"origin":"DE","tenant":"web","length_hours":1,"slack_hours":6}'
//
// On SIGINT/SIGTERM the HTTP server drains in-flight requests, then the
// fleet runs forward until every admitted job is resolved, and the
// final scheduling outcome is printed.
//
// With -data-dir the scheduler is durable: every admission is written
// to an append-only journal (fsync discipline per -fsync) and the full
// fleet state is snapshotted every -snapshot-every replay hours; after
// a crash or kill -9, restarting with the same -data-dir recovers all
// acknowledged work and resumes scheduling:
//
//	schedd -data-dir /var/lib/schedd -fsync always -snapshot-every 24
//
// A durable schedd is also a replication primary: it serves its
// journal over GET /v1/repl/stream. A second schedd started with
// -follow becomes a hot standby — it copies the primary's world
// configuration from /v1/stats, bootstraps from the primary's
// snapshot, applies the journal stream live, serves read-only
// /v1/jobs/{id} and /v1/stats (with an X-Replication-Lag-Hours
// header), and rejects writes with 421 plus the primary's URL. It
// takes over on POST /v1/repl/promote, or automatically once
// -probe-failures consecutive health probes (every -probe-interval)
// of the primary fail:
//
//	schedd -addr :9091 -follow http://primary:9090 \
//	  -data-dir /var/lib/schedd-standby -probe-interval 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/serve"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/tenant"
	"carbonshift/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":9090", "listen address")
		regionList = flag.String("regions", "DE,SE,US-CA", "comma-separated cluster regions")
		slots      = flag.Int("slots", 30, "slots per regional cluster")
		days       = flag.Int("days", 60, "replay horizon in days")
		policyName = flag.String("policy", "carbon-gate",
			"scheduling policy: "+strings.Join(schedd.PolicyNames(), ", "))
		percentile  = flag.Float64("percentile", 35, "gate percentile in [0, 100] for the gated policies")
		window      = flag.Int("window", 168, "lookback window in hours for carbon-gate")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		speedup     = flag.Float64("speedup", 3600, "trace seconds per wall second (3600 = 1h/s)")
		maxJobs     = flag.Int("max-jobs", schedd.DefaultMaxJobs, "bound on total jobs retained in memory")
		maxQueue    = flag.Int("max-queue", schedd.DefaultMaxQueue, "bound on outstanding (unresolved) jobs")
		dataDir     = flag.String("data-dir", "", "durability directory: journal admissions, snapshot fleet state, and recover on start (empty = in-memory only)")
		snapEvery   = flag.Int("snapshot-every", 24, "snapshot the fleet every N replay hours (0 = only at boot)")
		fsyncMode   = flag.String("fsync", "batch", "journal fsync discipline: always (every ack durable), batch (group flush, bounded loss window), none")
		follow      = flag.String("follow", "", "run as a hot-standby follower of the primary at this base URL (world config is copied from its /v1/stats)")
		advertise   = flag.String("advertise", "", "this server's own public base URL, echoed in /v1/stats and used by operators wiring failover clients")
		probeEvery  = flag.Duration("probe-interval", 0, "follower: probe the primary's /healthz at this cadence and auto-promote on loss (0 = promote only via POST /v1/repl/promote)")
		probeFails  = flag.Int("probe-failures", 3, "follower: consecutive failed probes before auto-promotion")
		tenantsPath = flag.String("tenants", "", "multi-tenant admission config: a JSON file of tenant specs (see examples/tenants/); empty = single-tenant mode. Followers copy the primary's tenant config instead.")
		partitions  = flag.Int("partitions", 0, "total partition count when this server is one slice of a schedgw-fronted fleet (0 = unpartitioned)")
		partitionID = flag.Int("partition-id", 0, "this server's partition index in [0, -partitions)")
		idBase      = flag.Int("id-base", -1, "start of this partition's auto-assigned job id range (-1 = partition-id * max-jobs). Followers copy the primary's partition identity instead.")
		traceSample = flag.Int("trace-sample", 0, "head-sample 1 in N requests into /debug/traces (0 = default 16, 1 = every request, negative = never)")
		traceSlow   = flag.Duration("trace-slow", 0, "always record requests slower than this, sampled or not (0 = default 250ms)")
		debugAddr   = flag.String("debug-addr", "", "operator debug listener (pprof + /debug/traces); empty = disabled. Bind it to loopback.")
	)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("service", "schedd")
	slog.SetDefault(log)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	policy, err := schedd.PolicyByName(*policyName, *percentile, *window)
	if err != nil {
		log.Error("bad -policy", "err", err)
		os.Exit(2)
	}
	if *days < 1 {
		// simgrid reads 0 hours as its own three-year default.
		log.Error("-days must be at least 1", "days", *days)
		os.Exit(2)
	}
	sync, err := wal.ParseSyncMode(*fsyncMode)
	if err != nil {
		log.Error("bad -fsync", "err", err)
		os.Exit(2)
	}

	// World configuration: a primary's comes from its flags; a follower
	// copies the primary's (policy and gate parameters, seed, horizon,
	// clusters, tenants, partition) so the two fleets are provably the
	// same scheduling world.
	var clusters []sched.Cluster
	var tenants *tenant.Config
	horizon := *days * 24
	worldSeed := *seed
	partCount, partID, partBase := *partitions, *partitionID, *idBase
	if partCount > 0 {
		if partID < 0 || partID >= partCount {
			log.Error("-partition-id outside [0, -partitions)", "partition_id", partID, "partitions", partCount)
			os.Exit(2)
		}
		if partBase < 0 {
			partBase = partID * *maxJobs
		}
	} else {
		partBase = 0
	}
	if *follow != "" {
		info, err := fetchPrimaryConfig(ctx, *follow)
		if err != nil {
			log.Error("fetching primary config failed", "err", err)
			os.Exit(1)
		}
		// The policy and its gate parameters are world config too: a
		// follower resolves the primary's from the echo, whatever its
		// own flags say. (A primary that echoes no parameters runs an
		// ungated policy, which ignores the local ones.)
		gate := schedd.GateParams{Percentile: *percentile, Window: *window}
		if info.Gate != nil {
			gate = *info.Gate
		}
		primaryPolicy, err := schedd.PolicyByName(info.Policy, gate.Percentile, gate.Window)
		if err != nil {
			log.Error("primary's policy does not resolve", "err", err)
			os.Exit(1)
		}
		if primaryPolicy != policy {
			log.Warn("-policy, -percentile and -window are ignored on a follower; the policy is copied from the primary",
				"primary_policy", fmt.Sprintf("%s%+v", primaryPolicy.Name(), primaryPolicy),
				"flags_policy", fmt.Sprintf("%s%+v", policy.Name(), policy))
		}
		policy = primaryPolicy
		horizon, worldSeed = info.Horizon, info.Seed
		for _, c := range info.Clusters {
			clusters = append(clusters, sched.Cluster{Region: c.Region, Slots: c.Slots})
		}
		// The tenant registry is part of the scheduling world: the fair
		// queue's dequeue order depends on it, so a follower copies the
		// primary's echoed config rather than trusting a local file.
		if *tenantsPath != "" {
			log.Warn("-tenants is ignored on a follower; the tenant config is copied from the primary")
		}
		if len(info.TenantConfig) > 0 {
			tenants, err = tenant.NewConfig(info.TenantConfig)
			if err != nil {
				log.Error("primary's tenant config does not validate", "err", err)
				os.Exit(1)
			}
		}
		// Partition identity is world config too: a promoted standby
		// must answer the gateway with the same partition echo and keep
		// assigning ids from the same disjoint range.
		if info.Partition != nil {
			partID, partCount, partBase = info.Partition.ID, info.Partition.Count, info.Partition.IDBase
		}
		log.Info("following primary", "primary", *follow, "policy", info.Policy,
			"regions", len(clusters), "horizon_hours", horizon, "seed", worldSeed,
			"tenants", len(info.TenantConfig))
	} else {
		for _, code := range strings.Split(*regionList, ",") {
			code = strings.TrimSpace(code)
			if _, ok := regions.ByCode(code); !ok {
				log.Error("unknown region", "region", code)
				os.Exit(2)
			}
			clusters = append(clusters, sched.Cluster{Region: code, Slots: *slots})
		}
		if *tenantsPath != "" {
			data, err := os.ReadFile(*tenantsPath)
			if err != nil {
				log.Error("reading -tenants file failed", "err", err)
				os.Exit(2)
			}
			if tenants, err = tenant.ParseConfig(data); err != nil {
				log.Error("bad -tenants config", "file", *tenantsPath, "err", err)
				os.Exit(2)
			}
			log.Info("multi-tenant admission enabled", "file", *tenantsPath,
				"tenants", strings.Join(tenants.Names(), ","))
		}
	}

	var regs []regions.Region
	for _, c := range clusters {
		r, ok := regions.ByCode(c.Region)
		if !ok {
			log.Error("primary region not in catalog", "region", c.Region)
			os.Exit(1)
		}
		regs = append(regs, r)
	}

	log.Info("generating traces", "regions", len(regs))
	set, err := simgrid.GenerateCached(ctx, regs, simgrid.Config{Seed: worldSeed, Hours: horizon}, 0)
	if err != nil {
		log.Error("trace generation failed", "err", err)
		os.Exit(1)
	}

	// The replay clock maps wall time since boot to trace hours. After a
	// recovery — or a promotion — the fleet is already at some hour
	// H > 0, so the clock rebases to resume from there; otherwise a
	// restarted (or just-promoted) scheduler would freeze until wall
	// time caught back up to H/speedup.
	var baseHours atomic.Int64
	var bootNano atomic.Int64
	bootNano.Store(time.Now().UnixNano())
	clock := func() time.Time {
		simElapsed := time.Duration(float64(time.Now().UnixNano()-bootNano.Load()) * *speedup)
		return set.Start().Add(time.Duration(baseHours.Load())*time.Hour + simElapsed)
	}
	rebase := func(hour int) {
		bootNano.Store(time.Now().UnixNano())
		baseHours.Store(int64(hour))
	}

	cfg := schedd.Config{
		Policy:        policy,
		Horizon:       horizon,
		MaxJobs:       *maxJobs,
		MaxQueue:      *maxQueue,
		Seed:          worldSeed,
		Speedup:       *speedup,
		PartitionID:   partID,
		Partitions:    partCount,
		IDBase:        partBase,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
		Sync:          sync,
		Advertise:     *advertise,
		Tenants:       tenants,

		TraceSampleEvery: *traceSample,
		TraceSlow:        *traceSlow,
	}

	var srv *schedd.Server
	if *follow != "" {
		srv, err = schedd.NewFollower(set, clusters, cfg, schedd.FollowerConfig{
			Primary:       *follow,
			ProbeInterval: *probeEvery,
			ProbeFailures: *probeFails,
		}, schedd.WithClock(clock), schedd.WithPromoteNotify(func(hour int) {
			rebase(hour)
			log.Info("promoted to primary", "hour", hour)
		}))
	} else {
		srv, err = schedd.New(set, clusters, cfg, schedd.WithClock(clock))
	}
	if err != nil {
		log.Error("server construction failed", "err", err)
		os.Exit(1)
	}
	defer srv.Close()
	rebase(srv.Hour())
	if *dataDir != "" && *follow == "" {
		if rec := srv.Recovery(); rec.Recovered {
			log.Info("recovered previous incarnation", "jobs", rec.RecoveredJobs,
				"hour", srv.Hour(), "data_dir", *dataDir,
				"snapshot_hour", rec.RecoveredSnapshotHour,
				"replayed_records", rec.ReplayedRecords, "torn_tail", rec.TornTail)
		} else {
			log.Info("journaling", "data_dir", *dataDir, "fsync", sync.String(), "snapshot_every_hours", *snapEvery)
		}
	}
	srv.Start(ctx)

	// The operator debug mux: pprof plus the trace ring, on its own
	// listener so profiling endpoints never ride the service address.
	if *debugAddr != "" {
		debug := &http.Server{
			Addr: *debugAddr,
			Handler: serve.NewDebugMux(map[string]http.Handler{
				"/debug/traces": srv.Tracer().Handler(),
			}),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Info("debug listener up", "addr", *debugAddr)
			if err := serve.ListenAndServe(ctx, debug, time.Second); err != nil {
				log.Error("debug listener failed", "err", err)
			}
		}()
	}

	log.Info("serving", "policy", policy.Name(), "regions", len(clusters),
		"addr", *addr, "speedup", *speedup)
	server := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// os.Exit skips deferred calls, so every exit path below closes the
	// server explicitly first: Close flushes the journal's final batch
	// — without it an orderly error exit would lose the last -fsync
	// batch window of acknowledged admissions, just like a kill -9.
	if err := serve.ListenAndServe(ctx, server, serve.DefaultGrace); err != nil {
		srv.Close()
		log.Error("server failed", "err", err)
		os.Exit(1)
	}

	if srv.Role() == "follower" {
		// A follower holds no authority over the fleet: there is nothing
		// to drain, the primary owns every acknowledged job.
		log.Info("follower stopped")
		return
	}

	// HTTP is down; run the world forward so every admitted job is
	// accounted for before exit.
	log.Info("draining fleet")
	res, err := srv.Drain()
	if err != nil {
		srv.Close()
		log.Error("drain failed", "err", err)
		os.Exit(1)
	}
	log.Info("drained", "jobs", len(res.Outcomes), "completed", res.Completed,
		"missed", res.Missed, "kg_co2eq", res.TotalEmissions/1000,
		"utilization_pct", 100*res.Utilization())
}

// fetchPrimaryConfig polls the primary's /v1/stats until it answers
// (the primary may still be generating traces), with a bounded wait.
func fetchPrimaryConfig(ctx context.Context, primary string) (schedd.StatsResponse, error) {
	client, err := schedd.NewClient(primary, &http.Client{Timeout: 5 * time.Second})
	if err != nil {
		return schedd.StatsResponse{}, err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		info, err := client.Stats(ctx)
		if err == nil {
			if len(info.Clusters) == 0 {
				return info, fmt.Errorf("primary %s reports no clusters", primary)
			}
			return info, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return schedd.StatsResponse{}, fmt.Errorf("fetching primary config from %s: %w", primary, err)
		}
		time.Sleep(time.Second)
	}
}
