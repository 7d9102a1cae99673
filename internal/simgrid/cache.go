package simgrid

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"carbonshift/internal/engine"
	"carbonshift/internal/regions"
	"carbonshift/internal/trace"
)

// The process-level trace cache holds whole base traces: the dataset a
// Lab, a scheduler world or a CLI asks for by (region, config). Each
// costs a full weather draw plus a full dispatch (simgrid.go), and the
// same catalog is asked for again by every fresh Lab, test and
// benchmark iteration in a process; the cache memoizes each trace by its
// full input fingerprint so it is simulated once per process.
//
// What-if sweeps do not come here. WhatIf shares one weather draw
// between its levels, dispatches only the hours its caller reads and
// hands the series back to be folded and dropped: a sweep reads each of
// its traces once, and a full run's 615 (Figure 11c–d) parked here
// would be ~125 MB held until exit for nobody to ask for again.
//
// Cached traces are shared and must be treated as immutable; every
// consumer in this repository only reads them. Entries use a
// single-flight sync.Once so concurrent first requests for the same key
// simulate once and everyone else blocks on the result.
//
// The key covers every input either stage reads — the weather's (code,
// coordinates, demand swing, seed, start, hours) and the dispatch's
// (mix, renewable drift, extra renewables) — so a Region value that
// shares a code with a catalog entry but carries, say, a modified mix
// gets its own entry rather than silently aliasing the catalog trace.
type cacheKey struct {
	code        string
	lat, lon    float64
	mix         regions.Mix
	deltaRenew  float64
	demandSwing float64
	seed        uint64
	start       int64 // unix seconds of cfg.Start
	hours       int
	extra       float64
}

type cacheEntry struct {
	once sync.Once
	tr   *trace.Trace
}

// DefaultCacheLimit bounds the number of cached traces. Only base
// catalogs enter the cache, and the most any program here holds at once
// is two of them — a Lab's dataset and a scheduler world at another
// seed or horizon, 2×123 = 246 entries — so the limit is the next power
// of two: ~54 MB of full-period traces (~210 KB each), without letting
// multi-seed sweeps grow the process without bound. When the limit is
// exceeded the oldest entries are evicted FIFO; evicted traces remain
// valid for holders and are simply re-simulated on the next request.
const DefaultCacheLimit = 256

var traceCache = struct {
	mu     sync.Mutex
	m      map[cacheKey]*cacheEntry
	order  []cacheKey // insertion order, for FIFO eviction
	hits   atomic.Uint64
	misses atomic.Uint64
}{m: make(map[cacheKey]*cacheEntry)}

func keyFor(r regions.Region, cfg Config) cacheKey {
	return cacheKey{
		code:        r.Code,
		lat:         r.Lat,
		lon:         r.Lon,
		mix:         r.Mix,
		deltaRenew:  r.DeltaRenew,
		demandSwing: r.DemandSwing,
		seed:        cfg.Seed,
		start:       cfg.Start.Unix(),
		hours:       cfg.Hours,
		extra:       cfg.ExtraRenewables,
	}
}

// GenerateRegionCached simulates a single region through the
// process-level cache: the first request for a (region, config) pair
// pays the simulation, every later one returns the shared trace.
func GenerateRegionCached(r regions.Region, cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	key := keyFor(r, cfg)

	traceCache.mu.Lock()
	e, ok := traceCache.m[key]
	if !ok {
		e = &cacheEntry{}
		traceCache.m[key] = e
		traceCache.order = append(traceCache.order, key)
		// FIFO eviction keeps the cache bounded; in-flight holders of
		// an evicted entry keep their (immutable) trace.
		for len(traceCache.m) > DefaultCacheLimit {
			oldest := traceCache.order[0]
			traceCache.order = traceCache.order[1:]
			delete(traceCache.m, oldest)
		}
	}
	traceCache.mu.Unlock()
	if ok {
		traceCache.hits.Add(1)
	} else {
		traceCache.misses.Add(1)
	}
	e.once.Do(func() {
		e.tr = simulate(r, cfg)
	})
	return e.tr, nil
}

// GenerateCached simulates all the given regions through the cache,
// fanning uncached regions across at most `workers` goroutines (0 means
// one per CPU, 1 forces serial). The returned set is identical to
// Generate's for the same inputs.
func GenerateCached(ctx context.Context, regs []regions.Region, cfg Config, workers int) (*trace.Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(regs) == 0 {
		return nil, fmt.Errorf("simgrid: no regions given")
	}
	cfg = cfg.withDefaults()
	traces, err := engine.Map(ctx, workers, len(regs), func(ctx context.Context, i int) (*trace.Trace, error) {
		return GenerateRegionCached(regs[i], cfg)
	})
	if err != nil {
		return nil, err
	}
	return trace.NewSet(traces)
}

// CacheStats reports the cache's lifetime hit and miss counts and its
// current entry count.
func CacheStats() (hits, misses uint64, entries int) {
	traceCache.mu.Lock()
	entries = len(traceCache.m)
	traceCache.mu.Unlock()
	return traceCache.hits.Load(), traceCache.misses.Load(), entries
}

// ResetCache drops every cached trace and zeroes the counters. It
// exists for tests and for benchmarks that want to time cold
// generation.
func ResetCache() {
	traceCache.mu.Lock()
	traceCache.m = make(map[cacheKey]*cacheEntry)
	traceCache.order = nil
	traceCache.mu.Unlock()
	traceCache.hits.Store(0)
	traceCache.misses.Store(0)
}
