// Package latency models inter-region network round-trip times,
// standing in for the Google Cloud inter-region latency measurements
// the paper uses to constrain spatial migration (Figure 6a).
//
// The model is geodesic: RTT grows linearly with great-circle distance
// at fiber propagation speed, inflated by a routing factor, plus a
// fixed switching overhead. Measured cloud inter-region RTTs track
// this model closely, and the experiments only need the induced
// reachability sets (which regions are within an SLO of an origin), not
// millisecond-exact values.
package latency

import (
	"fmt"
	"math"
	"sort"

	"carbonshift/internal/regions"
)

const (
	// earthRadiusKm is the mean Earth radius.
	earthRadiusKm = 6371.0
	// fiberKmPerMs is the one-way propagation speed of light in fiber
	// (~2/3 c), in km per millisecond.
	fiberKmPerMs = 200.0
	// routeInflation accounts for fiber paths being longer than the
	// great circle.
	routeInflation = 1.3
	// switchingOverheadMs is the fixed per-connection overhead.
	switchingOverheadMs = 2.0
)

// Haversine returns the great-circle distance in kilometres between
// two coordinates given in degrees.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const rad = math.Pi / 180
	phi1, phi2 := lat1*rad, lat2*rad
	dPhi := (lat2 - lat1) * rad
	dLam := (lon2 - lon1) * rad
	a := math.Sin(dPhi/2)*math.Sin(dPhi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dLam/2)*math.Sin(dLam/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// RTT converts a great-circle distance to a modeled round-trip time in
// milliseconds.
func RTT(km float64) float64 {
	return 2*km*routeInflation/fiberKmPerMs + switchingOverheadMs
}

// Matrix is a precomputed all-pairs RTT table over a region set.
type Matrix struct {
	codes []string
	index map[string]int
	ms    [][]float64
}

// NewMatrix builds the RTT matrix for the given regions.
func NewMatrix(regs []regions.Region) *Matrix {
	m := &Matrix{
		codes: make([]string, len(regs)),
		index: make(map[string]int, len(regs)),
		ms:    make([][]float64, len(regs)),
	}
	for i, r := range regs {
		m.codes[i] = r.Code
		m.index[r.Code] = i
	}
	for i, a := range regs {
		m.ms[i] = make([]float64, len(regs))
		for j, b := range regs {
			if i == j {
				continue // intra-region RTT is 0
			}
			m.ms[i][j] = RTT(Haversine(a.Lat, a.Lon, b.Lat, b.Lon))
		}
	}
	return m
}

// Codes returns the region codes covered by the matrix, in build order.
func (m *Matrix) Codes() []string {
	out := make([]string, len(m.codes))
	copy(out, m.codes)
	return out
}

// Within returns the codes of all regions reachable from origin within
// sloMs round-trip milliseconds, sorted. The origin itself is always
// included (intra-region latency is zero).
func (m *Matrix) Within(origin string, sloMs float64) ([]string, error) {
	i, ok := m.index[origin]
	if !ok {
		return nil, fmt.Errorf("latency: unknown region %q", origin)
	}
	var out []string
	for j, code := range m.codes {
		if m.ms[i][j] <= sloMs {
			out = append(out, code)
		}
	}
	sort.Strings(out)
	return out, nil
}
