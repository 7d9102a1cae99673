// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every stochastic component in the repository (wind generation, demand
// noise, forecast-error injection, workload sampling) draws from an
// explicitly seeded *rng.Source so that experiments are bit-for-bit
// reproducible across runs and machines. The generator is a
// splitmix64-seeded xoshiro256** — tiny, fast, and with far better
// statistical behaviour than required for the Monte Carlo use here.
//
// The package deliberately avoids math/rand so that the stream of values
// is pinned by this repository rather than by the Go release.
package rng

import "math"

// Source is a deterministic random number generator. It is not safe for
// concurrent use; create one Source per goroutine (see Split).
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, which guarantees
// a well-mixed internal state even for small or sequential seeds.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child generator from r. The child's stream
// is a pure function of r's current state, so splitting is itself
// deterministic. Splitting is the supported way to hand generators to
// concurrent workers.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SplitN derives n independent child generators in one serial pass.
// Child i's stream is a pure function of r's state at the call and of
// i, never of which goroutine later consumes it, so pre-splitting with
// SplitN before fanning cells out to the engine's worker pool keeps
// stochastic experiments byte-identical for every worker count.
func (r *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** step on the state words s0–s3: it returns
// the output and the next state. Uint64 and NormArgsBatch both advance
// through it, so the generator has one definition.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// unit maps 64 random bits to a uniform float64 in [0, 1). x>>11 is
// below 2⁵³, so it converts exactly as a signed integer, one instruction
// where the unsigned conversion branches.
func unit(x uint64) float64 {
	return float64(int64(x>>11)) / (1 << 53)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return unit(r.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Box–Muller transform.
func (r *Source) Norm(mean, stddev float64) float64 {
	logArg, cosArg := r.NormArgs()
	return NormOf(mean, stddev, math.Log(logArg), math.Cos(cosArg))
}

// NormArgs takes one Norm draw's two uniforms from r and returns what
// Norm takes the logarithm and the cosine of. NormOf finishes the draw:
// a caller that computes many draws' Log and Cos together gets Norm's
// values bit for bit.
func (r *Source) NormArgs() (logArg, cosArg float64) {
	return normArgs(r.Uint64(), r.Uint64())
}

// NormArgsBatch sets logArgs[i], cosArgs[i] to the next NormArgs, for
// every i of logArgs; cosArgs must be at least as long. The four state
// words stay in locals for the whole batch instead of going through r
// on every draw.
func (r *Source) NormArgsBatch(logArgs, cosArgs []float64) {
	cosArgs = cosArgs[:len(logArgs)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range logArgs {
		var x1, x2 uint64
		x1, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		x2, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		logArgs[i], cosArgs[i] = normArgs(x1, x2)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// NormArgs3 is NormArgsBatch on three streams in one pass: for each k
// it sets logArgs[k][i], cosArgs[k][i] to srcs[k]'s next NormArgs for
// every i below n = len(logArgs[0]), and leaves srcs[k] where n NormArgs
// calls would. The other five slices must be at least n long, and the
// three sources distinct. On amd64 with AVX2 a kernel (rng_amd64.s)
// steps the three generators as lanes of one vector; elsewhere each
// stream is its own NormArgsBatch.
func NormArgs3(srcs [3]*Source, logArgs, cosArgs [3][]float64) {
	if srcs[0] == srcs[1] || srcs[0] == srcs[2] || srcs[1] == srcs[2] {
		panic("rng: NormArgs3 given one stream twice")
	}
	n := len(logArgs[0])
	for k := range srcs {
		logArgs[k], cosArgs[k] = logArgs[k][:n], cosArgs[k][:n]
	}
	if !vectorOn {
		for k, r := range srcs {
			r.NormArgsBatch(logArgs[k], cosArgs[k])
		}
		return
	}
	// st[j][k] is state word j of stream k; the fourth lane idles at
	// zero, a state xoshiro never leaves.
	var st [4][4]uint64
	for k, r := range srcs {
		for j, w := range r.s {
			st[j][k] = w
		}
	}
	normArgs3Vec(&st, &logArgs, &cosArgs, n)
	for k, r := range srcs {
		for j := range r.s {
			r.s[j] = st[j][k]
		}
	}
}

// The CPUID and XCR0 bits VectorLanes reads: leaf 1's ECX, leaf 7's
// EBX, and the register states the operating system saves.
const (
	cpuidFMA, cpuidOSXSAVE, cpuidAVX = 1 << 12, 1 << 27, 1 << 28
	cpuidAVX2                        = 1 << 5
	cpuidAVX512F, cpuidAVX512DQ      = 1 << 16, 1 << 17
	cpuidAVX512VL                    = 1 << 31
	xcr0YMM                          = 1<<1 | 1<<2        // XMM, YMM
	xcr0ZMM                          = 1<<5 | 1<<6 | 1<<7 // opmask, ZMM_Hi256, Hi16_ZMM
)

// lanesFor is VectorLanes' decision from leaf 1's ECX, leaf 7's EBX (0
// on a CPU without leaf 7) and XCR0 (0 on one without OSXSAVE): 8 with
// AVX-512 F, DQ and VL and the opmask and ZMM state saved, else 4 with
// AVX2 and FMA and the YMM state saved, else 0.
func lanesFor(ecx1, ebx7, xcr0 uint32) int {
	const avx2 = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	if ecx1&avx2 != avx2 || ebx7&cpuidAVX2 == 0 || xcr0&xcr0YMM != xcr0YMM {
		return 0
	}
	const avx512 = cpuidAVX512F | cpuidAVX512DQ | cpuidAVX512VL
	if ebx7&avx512 != avx512 || xcr0&xcr0ZMM != xcr0ZMM {
		return 4
	}
	return 8
}

// normArgs is NormArgs from its two draws' bits.
func normArgs(x1, x2 uint64) (logArg, cosArg float64) {
	// Guard against log(0).
	u1 := 1 - unit(x1)
	u2 := unit(x2)
	return u1, 2 * math.Pi * u2
}

// NormOf is the Box–Muller draw from math.Log and math.Cos of NormArgs'
// two values. mean is added even when it is 0, so that a -0 product
// comes back +0 as it always has.
func NormOf(mean, stddev, log, cos float64) float64 {
	z := math.Sqrt(-2*log) * cos
	return mean + stddev*z
}

// Pick returns a random index weighted by the non-negative weights ws.
// It panics if a weight is negative, NaN or infinite, if ws is empty or
// sums to zero, or if the sum overflows to +Inf (two weights of
// math.MaxFloat64, say), which would otherwise return the last index
// every time.
func (r *Source) Pick(ws []float64) int {
	return r.PickWithTotal(ws, WeightTotal(ws))
}

// WeightTotal is Pick's check of ws: it panics where Pick does, and
// otherwise returns the weights' sum in Pick's order.
func WeightTotal(ws []float64) float64 {
	var total float64
	for _, w := range ws {
		if !(w >= 0 && w <= math.MaxFloat64) {
			panic("rng: negative or non-finite weight")
		}
		total += w
	}
	if len(ws) == 0 || total == 0 {
		panic("rng: Pick with empty or zero-sum weights")
	}
	if math.IsInf(total, 1) {
		panic("rng: Pick with weights whose sum overflows")
	}
	return total
}

// PickWithTotal is Pick for weights whose WeightTotal is total, so a
// caller drawing often from fixed weights checks and sums them once. It
// takes one draw.
func (r *Source) PickWithTotal(ws []float64, total float64) int {
	x := r.Float64() * total
	for i, w := range ws {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(ws) - 1
}
