package metrics

import (
	"bytes"
	"runtime"
	"testing"
)

// TestRegisterRuntime reads the runtime families through a scrape, as a
// server exposes them: the heap figures are MemStats.HeapInuse and its
// unused part, HeapInuse-HeapAlloc, within what a scrape itself
// allocates, the cycle counter counts a forced collection, and the
// goroutine gauge sees one that was started.
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	scrape := func() *Scrape {
		t.Helper()
		var buf bytes.Buffer
		if err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sc, err := ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	value := func(sc *Scrape, series string) float64 {
		t.Helper()
		v, ok := sc.Value(series)
		if !ok {
			t.Fatalf("%s is not in the scrape", series)
		}
		return v
	}

	before := value(scrape(), "go_gc_cycles_total")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sc := scrape()
	if got := value(sc, "go_gc_cycles_total"); got < before+1 || got < float64(ms.NumGC) {
		t.Errorf("go_gc_cycles_total = %g after a forced collection; %g before it, MemStats says %d", got, before, ms.NumGC)
	}
	inuse := value(sc, "go_heap_inuse_bytes")
	if want := float64(ms.HeapInuse); inuse < want-(1<<20) || inuse > want+(1<<20) {
		t.Errorf("go_heap_inuse_bytes = %g, MemStats.HeapInuse = %g", inuse, want)
	}
	// The unused part of the in-use spans is what HeapInuse holds beyond
	// the objects, and never all of it.
	if got, want := value(sc, "go_heap_unused_bytes"), float64(ms.HeapInuse-ms.HeapAlloc); got <= 0 || got >= inuse || got < want-(1<<20) || got > want+(1<<20) {
		t.Errorf("go_heap_unused_bytes = %g; HeapInuse-HeapAlloc = %g, go_heap_inuse_bytes = %g", got, want, inuse)
	}

	idle := value(sc, "go_goroutines")
	stop := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-stop
	}()
	<-started
	if got := value(scrape(), "go_goroutines"); got < idle+1 {
		t.Errorf("go_goroutines = %g with one more started, %g before", got, idle)
	}
	close(stop)
}
