package latency

import (
	"math"
	"testing"
	"testing/quick"

	"carbonshift/internal/regions"
)

// between is the matrix's RTT in milliseconds from region a to region b.
func between(m *Matrix, a, b string) float64 { return m.ms[m.index[a]][m.index[b]] }

// maxRTT is the largest RTT in the matrix — the latency needed for
// unconstrained global migration.
func maxRTT(m *Matrix) float64 {
	var max float64
	for _, row := range m.ms {
		for _, v := range row {
			max = math.Max(max, v)
		}
	}
	return max
}

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name                   string
		lat1, lon1, lat2, lon2 float64
		wantKm, tol            float64
	}{
		{"same point", 40, -74, 40, -74, 0, 0.001},
		{"NYC-London", 40.71, -74.01, 51.51, -0.13, 5570, 60},
		{"SF-Tokyo", 37.77, -122.42, 35.68, 139.69, 8280, 90},
		{"antipodal-ish", 0, 0, 0, 180, math.Pi * 6371, 1},
	}
	for _, c := range cases {
		got := Haversine(c.lat1, c.lon1, c.lat2, c.lon2)
		if math.Abs(got-c.wantKm) > c.tol {
			t.Errorf("%s: %v km, want %v +/- %v", c.name, got, c.wantKm, c.tol)
		}
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		lat1 := float64(a%90) / 1.1
		lon1 := float64(b % 180)
		lat2 := float64(c%90) / 1.1
		lon2 := float64(d % 180)
		x := Haversine(lat1, lon1, lat2, lon2)
		y := Haversine(lat2, lon2, lat1, lon1)
		return math.Abs(x-y) < 1e-9 && x >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRTTModel(t *testing.T) {
	if got := RTT(0); got != switchingOverheadMs {
		t.Fatalf("RTT(0) = %v", got)
	}
	// 1000 km: 2*1000*1.3/200 + 2 = 15 ms.
	if got := RTT(1000); math.Abs(got-15) > 1e-9 {
		t.Fatalf("RTT(1000) = %v, want 15", got)
	}
	if RTT(5000) <= RTT(1000) {
		t.Fatal("RTT not monotone in distance")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(regions.All())
	if len(m.codes) != 123 {
		t.Fatalf("matrix covers %d regions", len(m.codes))
	}
	if self := between(m, "SE", "SE"); self != 0 {
		t.Fatalf("self RTT = %v", self)
	}
	ab, ba := between(m, "SE", "IN-WE"), between(m, "IN-WE", "SE")
	if ab != ba {
		t.Fatalf("asymmetric RTT: %v vs %v", ab, ba)
	}
	if ab < 30 || ab > 150 {
		t.Fatalf("Stockholm-Mumbai RTT = %v ms, want a plausible intercontinental value", ab)
	}
}

func TestNeighborsCloserThanAntipodes(t *testing.T) {
	m := NewMatrix(regions.All())
	seNo, seAu := between(m, "SE", "NO"), between(m, "SE", "AU-NSW")
	if seNo >= seAu {
		t.Fatalf("Stockholm-Oslo (%v) not closer than Stockholm-Sydney (%v)", seNo, seAu)
	}
}

func TestWithin(t *testing.T) {
	m := NewMatrix(regions.All())
	// Zero SLO: only the origin.
	got, err := m.Within("FR", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "FR" {
		t.Fatalf("Within(FR, 0) = %v", got)
	}
	// 25 ms from Paris reaches Western Europe but not the US.
	got, err = m.Within("FR", 25)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	for _, c := range got {
		set[c] = true
	}
	for _, want := range []string{"FR", "BE", "GB", "CH", "NL", "DE"} {
		if !set[want] {
			t.Errorf("Within(FR, 25ms) missing %s: %v", want, got)
		}
	}
	if set["US-CA"] || set["JP-TK"] {
		t.Errorf("Within(FR, 25ms) reaches across oceans: %v", got)
	}
	// A large SLO reaches everything.
	got, err = m.Within("FR", maxRTT(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 123 {
		t.Fatalf("Within(FR, max) = %d regions, want 123", len(got))
	}
	if _, err := m.Within("NOPE", 10); err == nil {
		t.Fatal("unknown origin accepted")
	}
}

func TestWithinMonotoneInSLO(t *testing.T) {
	m := NewMatrix(regions.All())
	prev := 0
	for _, slo := range []float64{0, 10, 25, 50, 100, 150, 250} {
		got, err := m.Within("US-VA", slo)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < prev {
			t.Fatalf("reachable set shrank at SLO %v: %d < %d", slo, len(got), prev)
		}
		prev = len(got)
	}
}

// TestGlobalReachabilityAt250ms checks the paper's observation that a
// ~250 ms budget suffices for any region to reach the greenest region.
func TestGlobalReachabilityAt250ms(t *testing.T) {
	m := NewMatrix(regions.All())
	for _, code := range m.codes {
		got, err := m.Within(code, 250)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool, len(got))
		for _, c := range got {
			set[c] = true
		}
		if !set["SE"] {
			t.Errorf("%s cannot reach Sweden within 250 ms (RTT %v)", code, between(m, code, "SE"))
		}
	}
}

func TestMaxRTTPlausible(t *testing.T) {
	m := NewMatrix(regions.All())
	max := maxRTT(m)
	if max < 150 || max > 300 {
		t.Fatalf("MaxRTT = %v ms, want a plausible global diameter", max)
	}
}

func BenchmarkNewMatrix(b *testing.B) {
	regs := regions.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMatrix(regs)
	}
}
