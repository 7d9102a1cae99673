// Package fft implements the spectral machinery behind the paper's
// periodicity analysis (Figure 4): a complex FFT for arbitrary lengths
// (iterative radix-2 with a Bluestein chirp-z fallback), FFT-based
// autocorrelation, and the periodicity score of Azure Data Explorer's
// series_periods_detect(): a score in [0, 1] at a given period, where 1
// means the series repeats exactly at that period and 0 means no
// periodicity.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Any length is supported: powers of two run the iterative
// radix-2 algorithm directly, other lengths go through Bluestein's
// chirp-z reduction to a power-of-two convolution.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := make([]complex128, n)
		copy(out, x)
		radix2(out, false)
		return out
	}
	return bluestein(x)
}

// radix2 runs the in-place iterative Cooley–Tukey FFT. len(a) must be a
// power of two. If inverse, the conjugate transform is computed
// (without the 1/n scaling).
func radix2(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		ang := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution of
// power-of-two length (the chirp-z transform).
func bluestein(x []complex128) []complex128 {
	n := len(x)
	// Chirp factors w[k] = exp(-i*pi*k^2/n).
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		k2 := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, -math.Pi*float64(k2)/float64(n)))
	}

	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * w[k]
	}
	return out
}

// Autocorr returns the biased, normalized autocorrelation of x for lags
// 0..len(x)-1, computed in O(n log n) via the Wiener–Khinchin theorem.
// A linear trend is removed first so slow drifts do not masquerade as
// periodicity; acf[0] is 1 unless the detrended series is constant, in
// which case all lags are 0.
func Autocorr(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	detr := Detrend(x)
	// Zero-pad to at least 2n to avoid circular wrap-around.
	m := 1
	for m < 2*n {
		m <<= 1
	}
	cx := make([]complex128, m)
	for i, v := range detr {
		cx[i] = complex(v, 0)
	}
	radix2(cx, false)
	for i := range cx {
		re, im := real(cx[i]), imag(cx[i])
		cx[i] = complex(re*re+im*im, 0)
	}
	radix2(cx, true)
	out := make([]float64, n)
	norm := real(cx[0])
	if norm <= 1e-18 {
		return out // constant series: no autocorrelation structure
	}
	for lag := 0; lag < n; lag++ {
		out[lag] = real(cx[lag]) / norm
	}
	return out
}

// Detrend removes the least-squares linear trend (and therefore the
// mean) from x, returning a new slice.
func Detrend(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		return out // single sample: trend removal leaves zero
	}
	// Inline least-squares fit of x against sample index.
	mx := float64(n-1) / 2
	var my, num, den float64
	for _, v := range x {
		my += v
	}
	my /= float64(n)
	for i, v := range x {
		d := float64(i) - mx
		num += d * (v - my)
		den += d * d
	}
	slope := 0.0
	if den > 0 {
		slope = num / den
	}
	for i, v := range x {
		out[i] = v - (my + slope*(float64(i)-mx))
	}
	return out
}

// ScoreAt returns the periodicity score of x at one specific lag: the
// normalized autocorrelation at that lag, clamped to [0, 1]. Series
// whose detrended variance is negligible relative to their mean score 0
// — a flat fossil grid has no meaningful periodicity even if its tiny
// residual noise happens to correlate.
func ScoreAt(x []float64, lag int) float64 {
	if lag <= 0 || lag >= len(x) {
		return 0
	}
	if !meaningfulVariation(x) {
		return 0
	}
	acf := Autocorr(x)
	return clamp01(acf[lag])
}

// meaningfulVariation reports whether the detrended series varies by
// more than noiseFloor relative to its mean level.
func meaningfulVariation(x []float64) bool {
	if len(x) == 0 {
		return false
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	detr := Detrend(x)
	var ss float64
	for _, v := range detr {
		ss += v * v
	}
	sd := math.Sqrt(ss / float64(len(detr)))
	if mean == 0 {
		return sd > 0
	}
	return sd/math.Abs(mean) > noiseFloor
}

// noiseFloor is the minimum detrended coefficient of variation for a
// series to be considered periodic at all. Hong Kong and Indonesia in
// the paper's Figure 4 sit below this and score 0.
const noiseFloor = 0.02

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
