package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"carbonshift/internal/core"
	"carbonshift/internal/sched"
	"carbonshift/internal/simgrid"
)

// offlineSetup is the offline part's inputs: the Lab's dataset and the
// oracle's world and stream.
type offlineSetup struct {
	spec  offlineSpec
	lab   *core.Lab
	world *world
	jobs  []sched.Job
}

func setupOffline(ctx context.Context, spec offlineSpec, seed uint64) (*offlineSetup, error) {
	opts := core.Options{Sim: simgrid.Config{Seed: seed}, ArrivalSpan: spec.ArrivalSpan}
	if spec.LabRegions > 0 {
		opts.Regions = catalog(spec.LabRegions)
	}
	lab, err := core.NewLabCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	s := &offlineSetup{spec: spec, lab: lab}
	if s.world, err = buildWorld(ctx, spec.Oracle); err != nil {
		return nil, err
	}
	s.jobs, err = buildStream(spec.Oracle, s.world, seed^0x07ac1e, spec.OracleJobs)
	return s, err
}

// The experiments whose wall time the per-layer table names one by
// one; the others are summed under "rest".
var namedExperiments = []string{"fig4", "fig6a", "fig7", "fig10d", "fig11b", "fig11d", "ext-contention"}

type offlineResult struct {
	analysisWall time.Duration
	expWall      map[string]time.Duration // namedExperiments and "rest"
	cpuUtil      float64                  // process CPU ÷ (analysisWall × nproc)
	runWall      map[string]time.Duration // by policy name
	oracleWall   time.Duration
	oracleJobs   int
	digest       offlineDigest
	checks       []check
}

// run executes every registered experiment once — what `carbonlimits
// -all` does — and then the oracle: sched.Run under fifo (the
// carbon-agnostic baseline) and under spatiotemporal.
func (s *offlineSetup) run(ctx context.Context) (*offlineResult, error) {
	res := &offlineResult{expWall: map[string]time.Duration{}, runWall: map[string]time.Duration{}, oracleJobs: len(s.jobs)}
	named := map[string]bool{}
	for _, id := range namedExperiments {
		named[id] = true
	}
	var tables []*core.Table
	cpu0 := readUsage().cpu
	t0 := time.Now()
	for _, e := range core.Experiments() {
		te := time.Now()
		tbl, err := e.Run(ctx, s.lab)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		id := e.ID
		if !named[id] {
			id = "rest"
		}
		res.expWall[id] += time.Since(te)
		tables = append(tables, tbl)
		res.checks = append(res.checks, newCheck("experiment "+e.ID+" produced a table", len(tbl.Rows) > 0, "no rows"))
	}
	res.analysisWall = time.Since(t0)
	res.cpuUtil = (readUsage().cpu - cpu0).Seconds() / (res.analysisWall.Seconds() * float64(runtime.GOMAXPROCS(0)))

	var results [2]sched.Result
	for i, policy := range []sched.Policy{sched.FIFO{}, sched.SpatioTemporal{Percentile: 40, Window: 48}} {
		t0 := time.Now()
		r, err := sched.Run(s.world.set, s.world.clusters, s.jobs, policy, s.spec.Oracle.Horizon)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", policy.Name(), err)
		}
		res.runWall[policy.Name()] = time.Since(t0)
		res.oracleWall += time.Since(t0)
		results[i] = r
		res.checks = append(res.checks, newCheck("oracle "+policy.Name()+" resolved every job",
			len(r.Outcomes) == len(s.jobs) && r.Completed == len(s.jobs),
			"%d outcomes, %d completed of %d jobs", len(r.Outcomes), r.Completed, len(s.jobs)))
	}
	var err error
	res.digest, err = digestOffline(tables, results[0], results[1])
	return res, err
}

// userFacing are the issue's end-to-end metrics of the offline part.
func (r *offlineResult) userFacing() map[string]float64 {
	return map[string]float64{"analysis_s": r.analysisWall.Seconds(), "oracle_s": r.oracleWall.Seconds()}
}

func (r *offlineResult) note(rep *runReport) {
	rep.notef("analysis %.2fs (engine cpu util %.2f), oracle %.2fs over %d jobs: spatiotemporal saves %.1f%% of fifo's emissions",
		r.analysisWall.Seconds(), r.cpuUtil, r.oracleWall.Seconds(), r.oracleJobs, 100*r.digest.Saving)
}

// checkGolden compares the digest with the committed one for this
// workload, seed and size, or records it when updating. Runs without
// an entry pass: the golden pins behaviour at the default seed, not at
// every seed the driver may pick.
func (r *offlineResult) checkGolden(key string, update bool, rep *runReport) error {
	golden, err := loadGolden(update)
	if err != nil {
		return err
	}
	if update {
		golden[key] = r.digest
		rep.notef("offline digest %s recorded as %s", r.digest.Digest[:12], key)
		return saveGolden(golden)
	}
	want, ok := golden[key]
	if !ok {
		rep.notef("offline digest %s not compared: bench/golden.json has no entry %s", r.digest.Digest[:12], key)
		return nil
	}
	r.checks = append(r.checks, newCheck("offline digest equals bench/golden.json", want == r.digest,
		"got %s (saving %.4f), golden %s (saving %.4f)", r.digest.Digest[:12], r.digest.Saving, want.Digest[:12], want.Saving))
	return nil
}
