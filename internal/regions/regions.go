// Package regions holds the catalog of the 123 electric-grid regions
// used throughout the analysis, mirroring the region set of the paper's
// Electricity Maps dataset (2020–2022).
//
// Each entry carries the geographic metadata (coordinates, continent
// grouping), the cloud providers with datacenters in the region, and a
// calibrated annual generation mix from which the grid simulator
// (internal/simgrid) synthesizes hourly carbon-intensity traces. The mix
// is authored so that the population statistics of the synthesized
// traces reproduce the aggregates the paper reports: a global average
// intensity near 368 g·CO₂eq/kWh, Sweden as the global minimum near
// 16 g, roughly 46 % of regions above 400 g, and a large majority of
// regions with low daily variability.
package regions

import (
	"fmt"
	"sort"
)

// Source enumerates generation source categories. The order is
// load-bearing: Mix is indexed by Source.
type Source int

// Generation sources, from most to least carbon intensive (roughly).
const (
	Coal Source = iota
	Gas
	Oil
	Biomass
	Geothermal
	Solar
	Hydro
	Wind
	Nuclear
	numSources
)

// NumSources is the number of generation source categories.
const NumSources = int(numSources)

var sourceNames = [NumSources]string{
	"coal", "gas", "oil", "biomass", "geothermal", "solar", "hydro", "wind", "nuclear",
}

func (s Source) String() string {
	if s < 0 || int(s) >= NumSources {
		return fmt.Sprintf("Source(%d)", int(s))
	}
	return sourceNames[s]
}

// EmissionFactor returns the source's carbon-intensity factor in
// g·CO₂eq/kWh. The values follow lifecycle-style factors adjusted so
// hydro/nuclear-dominated grids land at the paper's observed floor
// (Sweden ≈ 16 g·CO₂eq/kWh).
func (s Source) EmissionFactor() float64 {
	return emissionFactors[s]
}

var emissionFactors = [NumSources]float64{
	Coal:       960,
	Gas:        475,
	Oil:        715,
	Biomass:    230,
	Geothermal: 38,
	Solar:      28,
	Hydro:      11,
	Wind:       8,
	Nuclear:    6,
}

// Mix is a region's annual generation mix: the fraction of energy from
// each source. Fractions sum to 1.
type Mix [NumSources]float64

// Sum returns the total of all shares (≈1 for a valid mix).
func (m Mix) Sum() float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// NominalCI is the mix-weighted average emission factor, i.e. the
// region's expected annual-average carbon intensity in g·CO₂eq/kWh.
func (m Mix) NominalCI() float64 {
	var ci float64
	for s, share := range m {
		ci += share * emissionFactors[s]
	}
	return ci
}

// RenewableShare returns the solar + wind share (the intermittent,
// variability-driving fraction of the mix).
func (m Mix) RenewableShare() float64 { return m[Solar] + m[Wind] }

// FossilShare returns the coal + gas + oil share.
func (m Mix) FossilShare() float64 { return m[Coal] + m[Gas] + m[Oil] }

// Normalize returns a copy of m scaled so the shares sum to 1. It
// panics if all shares are zero.
func (m Mix) Normalize() Mix {
	total := m.Sum()
	if total == 0 {
		panic("regions: normalizing zero mix")
	}
	var out Mix
	for i, v := range m {
		out[i] = v / total
	}
	return out
}

// Continent is the paper's geographical grouping.
type Continent int

// Continents. "Global" is not a continent; groupings expose it
// separately.
const (
	Africa Continent = iota
	Asia
	Europe
	NorthAmerica
	Oceania
	SouthAmerica
	numContinents
)

// NumContinents is the number of geographic groupings (excluding the
// implicit global group).
const NumContinents = int(numContinents)

var continentNames = [NumContinents]string{
	"Africa", "Asia", "Europe", "North America", "Oceania", "South America",
}

func (c Continent) String() string {
	if c < 0 || int(c) >= NumContinents {
		return fmt.Sprintf("Continent(%d)", int(c))
	}
	return continentNames[c]
}

// Continents lists all groupings in declaration order.
func Continents() []Continent {
	out := make([]Continent, NumContinents)
	for i := range out {
		out[i] = Continent(i)
	}
	return out
}

// Provider is a bit set of cloud providers with a datacenter presence.
type Provider uint8

// Cloud providers tracked by the catalog.
const (
	GCP Provider = 1 << iota
	AWS
	Azure
	IBM
	Alibaba
)

// Has reports whether p includes q.
func (p Provider) Has(q Provider) bool { return p&q != 0 }

func (p Provider) String() string {
	if p == 0 {
		return "none"
	}
	var out string
	add := func(q Provider, name string) {
		if p.Has(q) {
			if out != "" {
				out += "+"
			}
			out += name
		}
	}
	add(GCP, "GCP")
	add(AWS, "AWS")
	add(Azure, "Azure")
	add(IBM, "IBM")
	add(Alibaba, "Alibaba")
	return out
}

// Hyperscale reports whether the region hosts at least one of the three
// hyperscale providers the paper's Figure 4 considers.
func (p Provider) Hyperscale() bool { return p.Has(GCP | AWS | Azure) }

// Region describes one grid region in the catalog.
type Region struct {
	// Code is the Electricity-Maps-style identifier, e.g. "SE",
	// "US-CA", "IN-WE".
	Code string
	// Name is the human-readable region name.
	Name string
	// Continent is the geographic grouping used by the spatial
	// experiments.
	Continent Continent
	// Lat and Lon locate the region's load center, in degrees. They
	// drive the solar-generation model and the latency matrix.
	Lat, Lon float64
	// Providers is the set of cloud providers with datacenters here.
	Providers Provider
	// Mix is the 2021 (mid-study) annual generation mix.
	Mix Mix
	// DeltaRenew is the change in the solar+wind share from 2020 to
	// 2022 (fraction points, may be negative). The simulator shifts
	// this amount between the fossil and intermittent parts of the mix
	// linearly over the study period, producing the long-term trends
	// the paper analyzes in Figure 3(b).
	DeltaRenew float64
	// DemandSwing scales the amplitude of the diurnal demand cycle
	// (1 = typical). Grids with strong electric heating/cooling swings
	// have larger values.
	DemandSwing float64
}

// Validate checks internal consistency of the region entry.
func (r Region) Validate() error {
	if r.Code == "" || r.Name == "" {
		return fmt.Errorf("regions: %q missing code or name", r.Code)
	}
	if r.Lat < -90 || r.Lat > 90 || r.Lon < -180 || r.Lon > 180 {
		return fmt.Errorf("regions: %s has bad coordinates (%v, %v)", r.Code, r.Lat, r.Lon)
	}
	if s := r.Mix.Sum(); s < 0.995 || s > 1.005 {
		return fmt.Errorf("regions: %s mix sums to %v", r.Code, s)
	}
	for src, share := range r.Mix {
		if share < 0 {
			return fmt.Errorf("regions: %s has negative %v share", r.Code, Source(src))
		}
	}
	shift := r.DeltaRenew
	if shift < 0 {
		shift = -shift
	}
	if shift > r.Mix.FossilShare()+r.Mix.RenewableShare() {
		return fmt.Errorf("regions: %s DeltaRenew %v exceeds shiftable share", r.Code, r.DeltaRenew)
	}
	return nil
}

// All returns the full 123-region catalog, sorted by code. The returned
// slice is a fresh copy; callers may reorder it.
func All() []Region {
	out := make([]Region, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// ByCode returns the region with the given code.
func ByCode(code string) (Region, bool) {
	for _, r := range catalog {
		if r.Code == code {
			return r, true
		}
	}
	return Region{}, false
}

// MustByCode returns the region with the given code or panics.
func MustByCode(code string) Region {
	r, ok := ByCode(code)
	if !ok {
		panic("regions: unknown code " + code)
	}
	return r
}

// Codes returns all region codes, sorted.
func Codes() []string {
	out := make([]string, 0, len(catalog))
	for _, r := range catalog {
		out = append(out, r.Code)
	}
	sort.Strings(out)
	return out
}

// WithProviders returns the codes of regions whose provider set
// intersects mask, sorted.
func WithProviders(mask Provider) []string {
	var out []string
	for _, r := range catalog {
		if r.Providers&mask != 0 {
			out = append(out, r.Code)
		}
	}
	sort.Strings(out)
	return out
}

// Hyperscale returns the codes of regions hosting GCP, AWS, or Azure
// datacenters — the population of the paper's Figure 4.
func Hyperscale() []string { return WithProviders(GCP | AWS | Azure) }
