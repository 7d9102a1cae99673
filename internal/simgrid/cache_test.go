package simgrid

import (
	"context"
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
	want, err := GenerateRegion(greener, cfg)
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

	want, err := GenerateRegion(reg, utc)
	if err != nil {
		t.Fatal(err)
	}
	// The zoned spelling goes through the cache first, so on a miss it
	// is the one simulated.
	for _, gen := range []struct {
		name string
		fn   func(regions.Region, Config) (*trace.Trace, error)
	}{{"GenerateRegion", GenerateRegion}, {"GenerateRegionCached", GenerateRegionCached}} {
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
