// Package stats provides the statistical primitives the analysis uses:
// descriptive statistics (mean, standard deviation, coefficient of
// variation, daily CV), percentiles, bottom-k and minimum-window
// selection, and k-means++ clustering (used for the paper's Figure 3(b)
// trend grouping).
//
// Everything is implemented against plain []float64 so the package has
// no dependencies beyond the standard library.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"carbonshift/internal/rng"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev / mean), the paper's
// variability metric. It returns 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// DailyCV splits an hourly series into 24-hour windows and returns the
// mean of the per-day coefficients of variation. This is the "daily
// variability" of Figure 3: it isolates intra-day swings from seasonal
// drift. Trailing partial days are ignored.
func DailyCV(hourly []float64) float64 {
	days := len(hourly) / 24
	if days == 0 {
		return 0
	}
	var acc float64
	for d := 0; d < days; d++ {
		acc += CV(hourly[d*24 : (d+1)*24])
	}
	return acc / float64(days)
}

// MinMax returns the smallest and largest values in xs. It panics on an
// empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on an empty
// slice or out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NearestRankSorted returns the p-th percentile (0 <= p <= 100) of an
// ascending sample under the explicit nearest-rank definition: the
// element at sorted position ⌈p/100 · n⌉ (1-based), with p=0 mapping to
// the minimum. Unlike Percentile's linear interpolation — the right
// estimator for smooth distributions like the carbon-intensity history
// the gate policies threshold — nearest-rank always returns an observed
// sample, which is what latency reporting needs: with n=10, the p99 is
// the maximum, not an interpolated value below every observation ever
// made. It panics on an empty slice or out-of-range p.
func NearestRankSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: NearestRankSorted of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// SumBottomK returns the sum of the k smallest elements of xs. It uses
// an in-place quickselect over a copy, so it runs in O(n) expected time
// rather than O(n log n). It panics if k < 0 or k > len(xs).
//
// This is the kernel of the interruptible-job scheduler: an
// interruptible job of length k placed in a window runs during the k
// cheapest hours of that window.
func SumBottomK(xs []float64, k int) float64 {
	if k < 0 || k > len(xs) {
		panic(fmt.Sprintf("stats: SumBottomK k=%d of %d elements", k, len(xs)))
	}
	if k == 0 {
		return 0
	}
	if k == len(xs) {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s
	}
	buf := make([]float64, len(xs))
	copy(buf, xs)
	selectK(buf, k)
	var s float64
	for _, v := range buf[:k] {
		s += v
	}
	return s
}

// BottomKIndices returns the indices of the k smallest elements of xs,
// in ascending order of value (ties broken by index). It is used where
// the schedule itself — not just its cost — is needed. The order is
// total, so selecting the k smallest and sorting only those gives the
// slice a full sort would have been cut to, in O(n + k log k).
func BottomKIndices(xs []float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic(fmt.Sprintf("stats: BottomKIndices k=%d of %d elements", k, len(xs)))
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	if 0 < k && k < len(idx) {
		selectKIndices(xs, idx, k)
	}
	slices.SortFunc(idx[:k], func(a, b int) int { return compareIndices(xs, a, b) })
	return idx[:k]
}

// compareIndices orders indices into xs by value, then by index.
func compareIndices(xs []float64, a, b int) int {
	switch {
	case xs[a] < xs[b]:
		return -1
	case xs[a] > xs[b]:
		return 1
	}
	return a - b
}

// selectKIndices is selectK over indices into xs under compareIndices:
// afterwards idx[:k] holds the k first indices of that order, unsorted.
func selectKIndices(xs []float64, idx []int, k int) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if compareIndices(xs, idx[mid], idx[lo]) < 0 {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if compareIndices(xs, idx[hi], idx[lo]) < 0 {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if compareIndices(xs, idx[hi], idx[mid]) < 0 {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		pivot := idx[mid]
		idx[mid], idx[hi] = idx[hi], idx[mid]
		p := lo
		for j := lo; j < hi; j++ {
			if compareIndices(xs, idx[j], pivot) < 0 {
				idx[p], idx[j] = idx[j], idx[p]
				p++
			}
		}
		idx[p], idx[hi] = idx[hi], idx[p]
		switch {
		case p == k-1 || p == k:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// selectK partially sorts buf so that buf[:k] holds the k smallest
// elements (in arbitrary order), using median-of-three quickselect.
func selectK(buf []float64, k int) {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		p := partition(buf, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partition(buf []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot to dodge adversarial orderings.
	if buf[mid] < buf[lo] {
		buf[mid], buf[lo] = buf[lo], buf[mid]
	}
	if buf[hi] < buf[lo] {
		buf[hi], buf[lo] = buf[lo], buf[hi]
	}
	if buf[hi] < buf[mid] {
		buf[hi], buf[mid] = buf[mid], buf[hi]
	}
	pivot := buf[mid]
	buf[mid], buf[hi-1] = buf[hi-1], buf[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if buf[j] < pivot {
			buf[i], buf[j] = buf[j], buf[i]
			i++
		}
	}
	buf[i], buf[hi-1] = buf[hi-1], buf[i]
	return i
}

// MinWindowSum returns the starting index and sum of the contiguous
// window of length k with the smallest sum, computed with an O(n)
// sliding window. Ties resolve to the earliest start. It panics if
// k <= 0 or k > len(xs).
//
// This is the kernel of the deferrable-job scheduler: a non-
// interruptible job of length k with slack s starts at the cheapest
// k-window within the k+s-hour horizon (Bentley's minimum-sum
// subarray).
func MinWindowSum(xs []float64, k int) (start int, sum float64) {
	if k <= 0 || k > len(xs) {
		panic(fmt.Sprintf("stats: MinWindowSum k=%d of %d elements", k, len(xs)))
	}
	var cur float64
	for _, v := range xs[:k] {
		cur += v
	}
	best, bestStart := cur, 0
	for i := k; i < len(xs); i++ {
		cur += xs[i] - xs[i-k]
		// Strict inequality keeps the earliest start on ties; the
		// epsilon guards against float drift in long windows.
		if cur < best-1e-9 {
			best, bestStart = cur, i-k+1
		}
	}
	return bestStart, best
}

// Point is a 2-D observation for clustering.
type Point struct{ X, Y float64 }

// KMeansResult holds cluster assignments and centroids.
type KMeansResult struct {
	// Assign maps each input point index to its cluster id [0, K).
	Assign []int
	// Centroids are the final cluster centers.
	Centroids []Point
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// KMeans clusters the points into k clusters using k-means++ seeding
// (Arthur & Vassilvitskii 2007) followed by Lloyd iterations, matching
// the heuristic the paper uses to group regions by their 2020→2022
// carbon trend. The run is deterministic for a given seed.
func KMeans(points []Point, k int, seed uint64) (KMeansResult, error) {
	if k <= 0 {
		return KMeansResult{}, fmt.Errorf("stats: k-means with k=%d", k)
	}
	if len(points) < k {
		return KMeansResult{}, fmt.Errorf("stats: k-means with %d points < k=%d", len(points), k)
	}
	src := rng.New(seed)

	// k-means++ seeding: first centroid uniform, then each next
	// centroid sampled with probability proportional to squared
	// distance from the nearest existing centroid.
	centroids := make([]Point, 0, k)
	centroids = append(centroids, points[src.Intn(len(points))])
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d2[i] = nearestDist2(p, centroids)
			total += d2[i]
		}
		if total == 0 {
			// All points coincide with existing centroids; any choice
			// works.
			centroids = append(centroids, points[src.Intn(len(points))])
			continue
		}
		centroids = append(centroids, points[src.Pick(d2)])
	}

	assign := make([]int, len(points))
	const maxIter = 200
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := dist2(p, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		var sx, sy = make([]float64, k), make([]float64, k)
		counts := make([]int, k)
		for i, p := range points {
			c := assign[i]
			sx[c] += p.X
			sy[c] += p.Y
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster on the farthest point.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := nearestDist2(p, centroids); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = points[far]
				continue
			}
			centroids[c] = Point{sx[c] / float64(counts[c]), sy[c] / float64(counts[c])}
		}
	}
	return KMeansResult{Assign: assign, Centroids: centroids, Iterations: iter}, nil
}

func dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

func nearestDist2(p Point, cs []Point) float64 {
	best := math.Inf(1)
	for _, c := range cs {
		if d := dist2(p, c); d < best {
			best = d
		}
	}
	return best
}
