package metrics

import rtm "runtime/metrics"

// RegisterRuntime registers the Go runtime's families on r, each read
// from runtime/metrics when r renders a scrape and at no other time:
//
//   - go_heap_inuse_bytes, the bytes of in-use heap spans — live and
//     not yet swept objects plus the free space inside those spans —
//     which is runtime.MemStats.HeapInuse, the figure the repo
//     benchmark's heap_mb reads;
//   - go_gc_cycles_total, the garbage collections completed;
//   - go_goroutines, the goroutines that exist.
func RegisterRuntime(r *Registry) {
	r.NewGaugeFunc("go_heap_inuse_bytes",
		"Bytes of in-use heap spans: heap objects plus the unused space within their spans (HeapInuse).",
		readRuntime("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"))
	r.NewCounterFunc("go_gc_cycles_total",
		"Garbage collection cycles completed.",
		readRuntime("/gc/cycles/total:gc-cycles"))
	r.NewGaugeFunc("go_goroutines",
		"Goroutines that currently exist.",
		readRuntime("/sched/goroutines:goroutines"))
}

// readRuntime returns a callback that reads the named runtime/metrics
// samples, each a uint64, and returns their sum.
func readRuntime(names ...string) func() float64 {
	return func() float64 {
		samples := make([]rtm.Sample, len(names))
		for i, name := range names {
			samples[i].Name = name
		}
		rtm.Read(samples)
		var sum float64
		for _, s := range samples {
			if s.Value.Kind() == rtm.KindUint64 {
				sum += float64(s.Value.Uint64())
			}
		}
		return sum
	}
}
