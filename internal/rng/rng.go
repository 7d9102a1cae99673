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

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
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
	// Guard against log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Pick returns a random index weighted by the non-negative weights ws.
// It panics if ws is empty or sums to zero.
func (r *Source) Pick(ws []float64) int {
	var total float64
	for _, w := range ws {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if len(ws) == 0 || total == 0 {
		panic("rng: Pick with empty or zero-sum weights")
	}
	x := r.Float64() * total
	for i, w := range ws {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(ws) - 1
}
