package workload

import (
	"math"
	"testing"

	"carbonshift/internal/rng"
)

func TestNewDistributionValidation(t *testing.T) {
	if _, err := NewDistribution("x", map[int]float64{0: 1}); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := NewDistribution("x", map[int]float64{1: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewDistribution("x", map[int]float64{1: 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	// A NaN or infinite weight would leave Sample drawing only the
	// longest length; weights that are each finite may still overflow
	// their sum.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewDistribution("x", map[int]float64{1: 1, 6: w, 12: 1}); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
	if _, err := NewDistribution("x", map[int]float64{1: math.MaxFloat64, 6: math.MaxFloat64}); err == nil {
		t.Error("weights summing past MaxFloat64 accepted")
	}
}

func TestDistributionNormalized(t *testing.T) {
	for _, d := range []Distribution{DistEqual, DistAzure, DistGoogle} {
		ones := map[int]float64{}
		for _, l := range d.Lengths() {
			ones[l] = 1
		}
		sum := d.WeightedMean(ones)
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s weights sum to %v", d.Name, sum)
		}
	}
}

func TestDistributionLengthsMatchTable1(t *testing.T) {
	want := []int{1, 6, 12, 24, 48, 96, 168}
	for _, d := range []Distribution{DistEqual, DistAzure, DistGoogle} {
		got := d.Lengths()
		if len(got) != len(want) {
			t.Fatalf("%s lengths = %v", d.Name, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s lengths = %v, want %v", d.Name, got, want)
			}
		}
	}
}

// TestCloudTracesAreLongJobHeavy encodes the paper's observation that
// the Azure and Google traces concentrate resource usage in long jobs,
// unlike the equal weighting.
func TestCloudTracesAreLongJobHeavy(t *testing.T) {
	// The weight of the lengths above 48 h.
	longer := map[int]float64{96: 1, 168: 1}
	if share := DistEqual.WeightedMean(longer); share > 0.35 {
		t.Errorf("equal >48h share = %v", share)
	}
	for _, d := range []Distribution{DistAzure, DistGoogle} {
		if share := d.WeightedMean(longer); share < 0.6 {
			t.Errorf("%s >48h share = %v, want cloud traces dominated by long jobs", d.Name, share)
		}
	}
}

func TestWeightedMean(t *testing.T) {
	values := map[int]float64{1: 7, 6: 7, 12: 7, 24: 7, 48: 7, 96: 7, 168: 7}
	for _, d := range []Distribution{DistEqual, DistAzure, DistGoogle} {
		if got := d.WeightedMean(values); math.Abs(got-7) > 1e-9 {
			t.Errorf("%s constant weighted mean = %v", d.Name, got)
		}
	}
	// Equal weighting of a ramp is its plain mean.
	ramp := map[int]float64{1: 1, 6: 2, 12: 3, 24: 4, 48: 5, 96: 6, 168: 7}
	if got := DistEqual.WeightedMean(ramp); math.Abs(got-4) > 1e-9 {
		t.Errorf("equal ramp mean = %v, want 4", got)
	}
	// Long-heavy distributions weight the 168h value hardest.
	if DistAzure.WeightedMean(ramp) <= DistEqual.WeightedMean(ramp) {
		t.Error("azure weighting should tilt toward long-job values")
	}
}

func TestSampleRespectsSupport(t *testing.T) {
	src := rng.New(1)
	valid := make(map[int]bool)
	for _, l := range BatchLengths {
		valid[l] = true
	}
	counts := make(map[int]int)
	for i := 0; i < 10000; i++ {
		l := DistGoogle.Sample(src)
		if !valid[l] {
			t.Fatalf("sampled invalid length %d", l)
		}
		counts[l]++
	}
	// The dominant bucket must dominate the samples too.
	if counts[168] < 5000 {
		t.Fatalf("168h sampled %d/10000 times, want majority", counts[168])
	}
}

func TestSlacksAscending(t *testing.T) {
	for i := 1; i < len(Slacks); i++ {
		if Slacks[i] <= Slacks[i-1] {
			t.Fatalf("Slacks not ascending: %v", Slacks)
		}
	}
	if Slacks[0] != 24 || Slacks[len(Slacks)-1] != 8760 {
		t.Fatalf("Slacks = %v, want 24h through 1y", Slacks)
	}
}
