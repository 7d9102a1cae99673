package trace_test

import (
	"testing"
	"testing/quick"
	"time"

	"carbonshift/internal/spatial"
	"carbonshift/internal/trace"
)

// The ∞-migration envelope of a set is spatial.MinSeries over all of its
// regions; these tests hold it to the set's own samples.

func envelope(t *testing.T, traces ...*trace.Trace) (*trace.Set, []float64) {
	t.Helper()
	s, err := trace.NewSet(traces)
	if err != nil {
		t.Fatal(err)
	}
	min, err := spatial.MinSeries(s, s.Regions())
	if err != nil {
		t.Fatal(err)
	}
	return s, min
}

var start = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSetMinSeries(t *testing.T) {
	_, min := envelope(t, trace.New("A", start, []float64{5, 1}), trace.New("B", start, []float64{3, 2}))
	if min[0] != 3 || min[1] != 1 {
		t.Fatalf("MinSeries = %v", min)
	}
}

func TestQuickMinSeriesIsLowerEnvelope(t *testing.T) {
	f := func(seed int64) bool {
		n := 16
		mk := func(off float64) []float64 {
			ci := make([]float64, n)
			for i := range ci {
				ci[i] = off + float64((int64(i)*seed)%17+17)
			}
			return ci
		}
		s, min := envelope(t, trace.New("A", start, mk(1)), trace.New("B", start, mk(2)), trace.New("C", start, mk(0.5)))
		for i := 0; i < n; i++ {
			for _, code := range s.Regions() {
				if min[i] > s.MustGet(code).At(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
