package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func ramp(n int) []float64 {
	ci := make([]float64, n)
	for i := range ci {
		ci[i] = float64(i)
	}
	return ci
}

func TestBasicAccessors(t *testing.T) {
	tr := New("SE", t0, ramp(48))
	if tr.Len() != 48 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.End().Equal(t0.Add(48 * time.Hour)) {
		t.Fatalf("End = %v", tr.End())
	}
	if tr.At(7) != 7 {
		t.Fatalf("At(7) = %v", tr.At(7))
	}
	if got := tr.TimeAt(3); !got.Equal(t0.Add(3 * time.Hour)) {
		t.Fatalf("TimeAt(3) = %v", got)
	}
}

func TestIndex(t *testing.T) {
	tr := New("SE", t0, ramp(24))
	i, err := tr.Index(t0.Add(5 * time.Hour))
	if err != nil || i != 5 {
		t.Fatalf("Index = %d, %v", i, err)
	}
	if _, err := tr.Index(t0.Add(30 * time.Minute)); err == nil {
		t.Fatal("expected error for off-hour timestamp")
	}
	if _, err := tr.Index(t0.Add(-time.Hour)); err == nil {
		t.Fatal("expected error for timestamp before start")
	}
	if _, err := tr.Index(t0.Add(24 * time.Hour)); err == nil {
		t.Fatal("expected error for timestamp past end")
	}
}

func TestSlice(t *testing.T) {
	tr := New("SE", t0, ramp(100))
	sub, err := tr.Slice(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 10 || sub.At(0) != 10 {
		t.Fatalf("slice = len %d first %v", sub.Len(), sub.At(0))
	}
	if !sub.Start.Equal(t0.Add(10 * time.Hour)) {
		t.Fatalf("slice start = %v", sub.Start)
	}
	if _, err := tr.Slice(-1, 5); err == nil {
		t.Fatal("expected error for negative from")
	}
	if _, err := tr.Slice(5, 101); err == nil {
		t.Fatal("expected error for to > len")
	}
	if _, err := tr.Slice(9, 3); err == nil {
		t.Fatal("expected error for from > to")
	}
}

func TestYearExtraction(t *testing.T) {
	// 2020 is a leap year: 8784 hours; 2021 has 8760.
	n := 8784 + 8760
	tr := New("SE", t0, ramp(n))
	y20, err := tr.Year(2020)
	if err != nil {
		t.Fatal(err)
	}
	if y20.Len() != 8784 {
		t.Fatalf("2020 hours = %d, want 8784", y20.Len())
	}
	y21, err := tr.Year(2021)
	if err != nil {
		t.Fatal(err)
	}
	if y21.Len() != 8760 {
		t.Fatalf("2021 hours = %d, want 8760", y21.Len())
	}
	if y21.At(0) != 8784 {
		t.Fatalf("2021 first sample = %v, want 8784", y21.At(0))
	}
	if _, err := tr.Year(2022); err == nil {
		t.Fatal("expected error for uncovered year")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := New("SE", t0, ramp(10))
	cl := tr.Clone()
	cl.CI[0] = 999
	if tr.CI[0] == 999 {
		t.Fatal("clone shares backing array")
	}
}

func TestSumAndMean(t *testing.T) {
	tr := New("SE", t0, []float64{1, 2, 3, 4})
	if got := tr.Sum(1, 3); got != 5 {
		t.Fatalf("Sum(1,3) = %v", got)
	}
	if got := tr.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := New("SE", t0, ramp(5)).Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if err := New("", t0, ramp(5)).Validate(); err == nil {
		t.Fatal("empty region accepted")
	}
	if err := New("SE", t0, nil).Validate(); err == nil {
		t.Fatal("empty samples accepted")
	}
	if err := New("SE", t0, []float64{1, -2}).Validate(); err == nil {
		t.Fatal("negative sample accepted")
	}
	if err := New("SE", t0, []float64{math.NaN()}).Validate(); err == nil {
		t.Fatal("NaN sample accepted")
	}
	if err := New("SE", t0, []float64{1, math.Inf(1)}).Validate(); err == nil {
		t.Fatal("+Inf sample accepted")
	}
}

func mustSet(t *testing.T, traces ...*Trace) *Set {
	t.Helper()
	s, err := NewSet(traces)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetAlignment(t *testing.T) {
	a := New("A", t0, ramp(24))
	b := New("B", t0, ramp(24))
	s := mustSet(t, b, a)
	if got := s.Regions(); got[0] != "A" || got[1] != "B" {
		t.Fatalf("Regions = %v, want sorted", got)
	}
	if s.Len() != 24 || s.Size() != 2 {
		t.Fatalf("Len/Size = %d/%d", s.Len(), s.Size())
	}

	if _, err := NewSet([]*Trace{a, New("C", t0, ramp(23))}); err == nil {
		t.Fatal("misaligned lengths accepted")
	}
	if _, err := NewSet([]*Trace{a, New("C", t0.Add(time.Hour), ramp(24))}); err == nil {
		t.Fatal("misaligned starts accepted")
	}
	if _, err := NewSet([]*Trace{a, New("A", t0, ramp(24))}); err == nil {
		t.Fatal("duplicate region accepted")
	}
	if _, err := NewSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestSetMinAt(t *testing.T) {
	a := New("A", t0, []float64{5, 1, 5})
	b := New("B", t0, []float64{3, 2, 5})
	s := mustSet(t, a, b)
	if r, v := s.MinAt(0); r != "B" || v != 3 {
		t.Fatalf("MinAt(0) = %s %v", r, v)
	}
	if r, v := s.MinAt(1); r != "A" || v != 1 {
		t.Fatalf("MinAt(1) = %s %v", r, v)
	}
	// Ties break toward lexically smaller code.
	if r, _ := s.MinAt(2); r != "A" {
		t.Fatalf("MinAt(2) tie = %s, want A", r)
	}
}

func TestSetGlobalMean(t *testing.T) {
	a := New("A", t0, []float64{2, 2})
	b := New("B", t0, []float64{4, 4})
	s := mustSet(t, a, b)
	if got := s.GlobalMean(); got != 3 {
		t.Fatalf("GlobalMean = %v", got)
	}
}

func TestSetSubset(t *testing.T) {
	a := New("A", t0, ramp(2))
	b := New("B", t0, ramp(2))
	s := mustSet(t, a, b)
	sub, err := s.Subset([]string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 1 {
		t.Fatalf("subset size = %d", sub.Size())
	}
	if _, err := s.Subset([]string{"Z"}); err == nil {
		t.Fatal("unknown subset region accepted")
	}
}

func TestSetYear(t *testing.T) {
	n := 8784 + 8760
	s := mustSet(t, New("A", t0, ramp(n)), New("B", t0, ramp(n)))
	y, err := s.Year(2021)
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != 8760 {
		t.Fatalf("year set len = %d", y.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := New("A", t0, []float64{1.5, 2.25, 3})
	b := New("B", t0, []float64{4, 5, 6})
	s := mustSet(t, a, b)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 2 || got.Len() != 3 {
		t.Fatalf("round trip size/len = %d/%d", got.Size(), got.Len())
	}
	tr := got.MustGet("A")
	if math.Abs(tr.At(1)-2.25) > 1e-9 {
		t.Fatalf("round trip sample = %v", tr.At(1))
	}
	if !tr.Start.Equal(t0) {
		t.Fatalf("round trip start = %v", tr.Start)
	}
}

// TestReadCSVRejectsGarbage feeds malformed input and requires an error.
// A misplaced sample, the fourth of one region's rows, must name line 5.
func TestReadCSVRejectsGarbage(t *testing.T) {
	const head = "region,timestamp,carbon_intensity_gco2eq_kwh\n"
	misplaced := func(ts string) string {
		return head + "A,2020-01-01T00:00:00Z,1\nA,2020-01-01T01:00:00Z,2\nA,2020-01-01T02:00:00Z,3\n" +
			"A," + ts + ",4\nA,2020-01-01T04:00:00Z,5\n"
	}
	for _, tc := range []struct{ name, in, want string }{
		{"bad header", "not,a,header\n", ""},
		{"bad timestamp", head + "A,not-a-time,1\n", ""},
		{"bad value", head + "A,2020-01-01T00:00:00Z,xyz\n", ""},
		{"infinite value", head + "A,2020-01-01T00:00:00Z,Inf\n", "bad sample"},
		{"gap", misplaced("2020-01-01T04:00:00Z"), "line 5:"},
		{"duplicate", misplaced("2020-01-01T02:00:00Z"), "line 5:"},
		{"out of order", misplaced("2020-01-01T01:00:00Z"), "line 5:"},
		{"off the hour", misplaced("2020-01-01T02:30:00Z"), "line 5:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadCSV = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestQuickSumMatchesMean(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		ci := make([]float64, len(raw))
		for i, v := range raw {
			ci[i] = math.Abs(math.Mod(v, 1000))
			if math.IsNaN(ci[i]) {
				ci[i] = 0
			}
		}
		tr := New("X", t0, ci)
		want := tr.Sum(0, tr.Len()) / float64(tr.Len())
		return math.Abs(tr.Mean()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
