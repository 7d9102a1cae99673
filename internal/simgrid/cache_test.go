package simgrid

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/trace"
)

func cacheTestConfig(seed uint64) Config {
	return Config{Seed: seed, Hours: 24 * 30}
}

func TestGenerateCachedMatchesGenerate(t *testing.T) {
	ResetCache()
	defer ResetCache()
	regs := regions.All()[:8]
	cfg := cacheTestConfig(3)
	plain, err := Generate(regs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := GenerateCached(context.Background(), regs, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range plain.Regions() {
		a, b := plain.MustGet(code), cached.MustGet(code)
		if len(a.CI) != len(b.CI) {
			t.Fatalf("%s: length %d vs %d", code, len(a.CI), len(b.CI))
		}
		for i := range a.CI {
			if a.CI[i] != b.CI[i] {
				t.Fatalf("%s: sample %d differs: %v vs %v", code, i, a.CI[i], b.CI[i])
			}
		}
	}
	// World resolves codes to the very traces the cache holds for the
	// catalog regions of those codes.
	codes := []string{"US-CA", "DE", "SE"}
	byCode := make([]regions.Region, len(codes))
	for i, code := range codes {
		byCode[i] = regions.MustByCode(code)
	}
	want, err := GenerateCached(context.Background(), byCode, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	world, err := World(context.Background(), codes, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(world.Regions(), want.Regions()) {
		t.Fatalf("World regions %v, GenerateCached %v", world.Regions(), want.Regions())
	}
	for _, code := range codes {
		if world.MustGet(code) != want.MustGet(code) {
			t.Errorf("%s: World and GenerateCached return different traces", code)
		}
	}
}

func TestCacheHitBehavior(t *testing.T) {
	ResetCache()
	defer ResetCache()
	regs := regions.All()[:5]
	cfg := cacheTestConfig(4)
	if _, err := GenerateCached(context.Background(), regs, cfg, 2); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries := CacheStats()
	if hits != 0 || misses != 5 || entries != 5 {
		t.Fatalf("after cold run: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	// Same config again: all hits, no new entries.
	warm, err := GenerateCached(context.Background(), regs, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, entries = CacheStats()
	if hits != 5 || misses != 5 || entries != 5 {
		t.Fatalf("after warm run: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	// The warm run hands back the very same shared traces.
	tr1, _ := GenerateRegionCached(regs[0], cfg)
	if warm.MustGet(regs[0].Code) != tr1 {
		t.Fatal("warm run did not reuse the cached trace")
	}
	// A different config misses: the key covers every simulation input.
	other := cacheTestConfig(4)
	other.ExtraRenewables = 0.2
	if _, err := GenerateRegionCached(regs[0], other); err != nil {
		t.Fatal(err)
	}
	if _, misses, entries := CacheStats(); misses != 6 || entries != 6 {
		t.Fatalf("config change did not miss: misses=%d entries=%d", misses, entries)
	}
}

// Concurrent first requests for the same key must simulate once and
// share the result (single-flight), with no data races (-race).
func TestCacheConcurrentAccess(t *testing.T) {
	ResetCache()
	defer ResetCache()
	reg := regions.All()[0]
	cfg := cacheTestConfig(5)
	const goroutines = 16
	results := make([]*trace.Trace, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, err := GenerateRegionCached(reg, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			_ = tr.Mean() // concurrent read of the shared trace
			results[g] = tr
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatal("concurrent requests produced distinct traces")
		}
	}
	if _, _, entries := CacheStats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
}

// raceEnabled is set by raceon_test.go in -race builds.
var raceEnabled bool

// setTraces returns set's traces in its region order.
func setTraces(set *trace.Set) []*trace.Trace {
	var out []*trace.Trace
	for _, code := range set.Regions() {
		out = append(out, set.MustGet(code))
	}
	return out
}

// TestGenerateCachedAllocatesOnlyTraces bounds what generating a set
// allocates per region at its n-hour trace plus 4 KiB: the weather's
// three n-hour series come back from weatherPool, region after region.
// The collector is held off so the pool, warmed by a first call, keeps
// its weathers through the measured one.
func TestGenerateCachedAllocatesOnlyTraces(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are not meaningful under the race detector")
	}
	ResetCache()
	defer ResetCache()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	regs := regions.All()[:16]
	cfg := Config{Seed: 11, Hours: 4 * blockHours}
	for _, workers := range []int{1, 2} {
		if _, err := GenerateCached(context.Background(), regs, cfg, workers); err != nil {
			t.Fatal(err)
		}
		ResetCache()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := GenerateCached(context.Background(), regs, cfg, workers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRegion := (after.TotalAlloc - before.TotalAlloc) / uint64(len(regs))
		if limit := uint64(8*cfg.Hours + 4<<10); perRegion > limit {
			t.Errorf("%d workers: %d B a region, over an %d-hour trace's %d B plus 4 KiB",
				workers, perRegion, cfg.Hours, 8*cfg.Hours)
		}
		ResetCache()
	}
}

// TestGenerateCachedConcurrentSeeds generates two seeds' sets at once
// and requires the bits serial calls give: under -race it shows that
// concurrent simulations never share a pooled weather.
func TestGenerateCachedConcurrentSeeds(t *testing.T) {
	ResetCache()
	defer ResetCache()
	regs := regions.All()[:6]
	seeds := []uint64{21, 22}
	want := make([]string, len(seeds))
	for i, seed := range seeds {
		set, err := GenerateCached(context.Background(), regs, cacheTestConfig(seed), 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = traceBits(setTraces(set)...)
	}
	ResetCache()
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set, err := GenerateCached(context.Background(), regs, cacheTestConfig(seed), 2)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = traceBits(setTraces(set)...)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if got[i] != want[i] {
			t.Errorf("seed %d: concurrent generation digest %s, serial %s", seed, got[i], want[i])
		}
	}
}

// The key must cover the region's simulation inputs, not just its
// code: a modified Region sharing a catalog code gets its own entry.
func TestCacheKeyCoversRegionFields(t *testing.T) {
	ResetCache()
	defer ResetCache()
	reg := regions.All()[0]
	cfg := cacheTestConfig(8)
	base, err := GenerateRegionCached(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	greener := reg
	greener.Mix = shiftToRenewables(reg.Mix, 0.3)
	mod, err := GenerateRegionCached(greener, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mod == base {
		t.Fatal("modified region aliased to the catalog trace")
	}
	want, err := generateRegion(greener, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.CI {
		if mod.CI[i] != want.CI[i] {
			t.Fatalf("cached modified-region trace diverges from Generate at hour %d", i)
		}
	}
	if _, _, entries := CacheStats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
}

// The cache is bounded: inserting past DefaultCacheLimit evicts the
// oldest entries FIFO instead of growing without bound.
func TestCacheEviction(t *testing.T) {
	ResetCache()
	defer ResetCache()
	reg := regions.All()[0]
	cfg := Config{Hours: 24} // tiny traces: eviction test only needs keys
	for seed := uint64(0); seed < DefaultCacheLimit+10; seed++ {
		cfg.Seed = seed
		if _, err := GenerateRegionCached(reg, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, entries := CacheStats(); entries != DefaultCacheLimit {
		t.Fatalf("entries = %d, want the %d cap", entries, DefaultCacheLimit)
	}
	// The earliest seeds were evicted: requesting one again re-misses.
	_, missesBefore, _ := CacheStats()
	cfg.Seed = 0
	if _, err := GenerateRegionCached(reg, cfg); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := CacheStats(); misses != missesBefore+1 {
		t.Fatal("evicted entry did not re-miss")
	}
}

func TestResetCache(t *testing.T) {
	ResetCache()
	reg := regions.All()[0]
	if _, err := GenerateRegionCached(reg, cacheTestConfig(6)); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	hits, misses, entries := CacheStats()
	if hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("after reset: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

func TestGenerateCachedValidates(t *testing.T) {
	ResetCache()
	defer ResetCache()
	if _, err := GenerateCached(context.Background(), nil, cacheTestConfig(7), 1); err == nil {
		t.Fatal("empty region list accepted")
	}
	bad := cacheTestConfig(7)
	bad.ExtraRenewables = 2
	if _, err := GenerateCached(context.Background(), regions.All()[:1], bad, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	for _, codes := range [][]string{nil, {}} {
		if _, err := World(context.Background(), codes, cacheTestConfig(7), 1); err == nil {
			t.Fatalf("World accepted the empty code list %#v", codes)
		}
	}
	if _, err := World(context.Background(), []string{"DE", "XX"}, cacheTestConfig(7), 1); err == nil || !strings.Contains(err.Error(), `"XX"`) {
		t.Fatalf("World over an unknown code: err = %v, want it named", err)
	}
}

// A Start names an instant: the same instant spelled in another zone is
// the same simulation, through the cache or around it. The model reads
// Start's calendar (hour of day, day of year, weekday) and the cache
// keys on the instant, so unless withDefaults normalises the zone a
// +05:00 start simulates differently from its UTC twin while sharing
// its cache entry — whichever is asked for first wins.
func TestStartZoneDoesNotMatter(t *testing.T) {
	ResetCache()
	defer ResetCache()
	reg := regions.MustByCode("DE")
	utc := Config{Seed: 11, Start: time.Date(2021, 3, 27, 21, 0, 0, 0, time.UTC), Hours: 24 * 9}
	east := utc
	east.Start = utc.Start.In(time.FixedZone("+05:00", 5*3600)) // 02:00 on the 28th, a Sunday there

	want, err := generateRegion(reg, utc)
	if err != nil {
		t.Fatal(err)
	}
	// The zoned spelling goes through the cache first, so on a miss it
	// is the one simulated.
	for _, gen := range []struct {
		name string
		fn   func(regions.Region, Config) (*trace.Trace, error)
	}{{"generateRegion", generateRegion}, {"GenerateRegionCached", GenerateRegionCached}} {
		for _, cfg := range []Config{east, utc} {
			got, err := gen.fn(reg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Start.Equal(want.Start) {
				t.Fatalf("%s: start %v, want %v", gen.name, got.Start, want.Start)
			}
			for i := range want.CI {
				if got.CI[i] != want.CI[i] {
					t.Fatalf("%s from %v: hour %d = %v, want the UTC twin's %v",
						gen.name, cfg.Start, i, got.CI[i], want.CI[i])
				}
			}
		}
	}
	if _, _, entries := CacheStats(); entries != 1 {
		t.Fatalf("entries = %d, want the two spellings to share 1", entries)
	}
}

// TestNonFiniteRegionRefused: a region whose model inputs are not all
// finite is refused by every entry point, naming the region and the
// field, before the trace cache is touched. A NaN key never equals
// itself, so each such request used to make a fresh entry that eviction
// could not delete, and the 257th panicked with the cache's lock held.
func TestNonFiniteRegionRefused(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := Config{Hours: 24}
	reg := regions.All()[0]
	for _, c := range []struct {
		field string
		set   func(r *regions.Region)
	}{
		{"Lat", func(r *regions.Region) { r.Lat = math.NaN() }},
		{"Lon", func(r *regions.Region) { r.Lon = math.Inf(1) }},
		{"Mix[wind]", func(r *regions.Region) { r.Mix[regions.Wind] = math.NaN() }},
		{"DeltaRenew", func(r *regions.Region) { r.DeltaRenew = math.Inf(-1) }},
		{"DemandSwing", func(r *regions.Region) { r.DemandSwing = math.NaN() }},
	} {
		bad := reg
		c.set(&bad)
		_, err1 := Generate([]regions.Region{reg, bad}, cfg)
		_, err2 := GenerateRegionCached(bad, cfg)
		_, err3 := GenerateCached(context.Background(), []regions.Region{bad}, cfg, 1)
		_, err4 := WhatIf(bad, cfg, []float64{0, 0.5}, 24)
		for i, err := range []error{err1, err2, err3, err4} {
			if err == nil || !strings.Contains(err.Error(), bad.Code) || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s: entry point %d returned %v, want an error naming %s and %s", c.field, i+1, err, bad.Code, c.field)
			}
		}
	}
	nan := reg
	nan.Lat = math.NaN()
	for i := 0; i < 300; i++ {
		if _, err := GenerateRegionCached(nan, cfg); err == nil {
			t.Fatalf("call %d: a NaN latitude was accepted", i+1)
		}
	}
	if hits, misses, entries := CacheStats(); hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("refused requests reached the cache: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	if tr, err := GenerateRegionCached(reg, cfg); err != nil || len(tr.CI) != 24 {
		t.Fatalf("a catalog region after the refusals: %v", err)
	}
	if _, misses, entries := CacheStats(); misses != 1 || entries != 1 {
		t.Fatalf("after one catalog region: misses=%d entries=%d, want 1 and 1", misses, entries)
	}
}
