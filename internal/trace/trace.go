// Package trace defines the hourly carbon-intensity time series used by
// every analysis in this repository, together with slicing, alignment,
// and CSV interchange helpers.
//
// A Trace mirrors one Electricity-Maps-style export: a region code plus
// an hourly series of average carbon intensity in g·CO₂eq/kWh. The
// analyses in the paper operate on three calendar years (2020–2022) of
// such series for 123 regions; a Set holds that aligned collection.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Hour is the fixed resolution of all traces. The paper argues hourly
// granularity suffices because grid carbon intensity rarely moves
// significantly within 2–3 hours.
const Hour = time.Hour

// HoursPerDay and HoursPerWeek are used for daily/weekly slicing.
const (
	HoursPerDay  = 24
	HoursPerWeek = 168
)

// Trace is an hourly carbon-intensity series for one region.
type Trace struct {
	// Region is the catalog code, e.g. "SE" or "US-CA".
	Region string
	// Start is the UTC timestamp of the first sample.
	Start time.Time
	// CI holds one sample per hour, in g·CO₂eq/kWh.
	CI []float64
}

// New returns a Trace with the given region, start, and samples.
func New(region string, start time.Time, ci []float64) *Trace {
	return &Trace{Region: region, Start: start.UTC(), CI: ci}
}

// Len returns the number of hourly samples.
func (t *Trace) Len() int { return len(t.CI) }

// End returns the timestamp one hour past the final sample.
func (t *Trace) End() time.Time { return t.Start.Add(time.Duration(len(t.CI)) * Hour) }

// At returns the carbon intensity for hour index i.
func (t *Trace) At(i int) float64 { return t.CI[i] }

// TimeAt returns the timestamp of hour index i.
func (t *Trace) TimeAt(i int) time.Time { return t.Start.Add(time.Duration(i) * Hour) }

// Index returns the hour index of ts, or an error if ts falls outside
// the trace or off the hour boundary.
func (t *Trace) Index(ts time.Time) (int, error) {
	d := ts.UTC().Sub(t.Start)
	if d%Hour != 0 {
		return 0, fmt.Errorf("trace: %v is not on an hour boundary", ts)
	}
	i := int(d / Hour)
	if i < 0 || i >= len(t.CI) {
		return 0, fmt.Errorf("trace: %v outside trace [%v, %v)", ts, t.Start, t.End())
	}
	return i, nil
}

// Slice returns a view of hours [from, to). The underlying samples are
// shared with the parent trace.
func (t *Trace) Slice(from, to int) (*Trace, error) {
	if from < 0 || to > len(t.CI) || from > to {
		return nil, fmt.Errorf("trace: invalid slice [%d, %d) of %d samples", from, to, len(t.CI))
	}
	return &Trace{
		Region: t.Region,
		Start:  t.TimeAt(from),
		CI:     t.CI[from:to],
	}, nil
}

// Year returns the sub-trace covering calendar year y, which must be
// fully contained in the trace.
func (t *Trace) Year(y int) (*Trace, error) {
	from := time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC)
	if from.Before(t.Start) || to.After(t.End()) {
		return nil, fmt.Errorf("trace: year %d outside trace [%v, %v)", y, t.Start, t.End())
	}
	i, err := t.Index(from)
	if err != nil {
		return nil, err
	}
	n := int(to.Sub(from) / Hour)
	return t.Slice(i, i+n)
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	ci := make([]float64, len(t.CI))
	copy(ci, t.CI)
	return &Trace{Region: t.Region, Start: t.Start, CI: ci}
}

// Window returns the samples in [start, start+n), or an error if the
// window overruns the trace.
func (t *Trace) Window(start, n int) ([]float64, error) {
	if start < 0 || n < 0 || start+n > len(t.CI) {
		return nil, fmt.Errorf("trace: window [%d, %d) outside %d samples", start, start+n, len(t.CI))
	}
	return t.CI[start : start+n], nil
}

// Sum returns the cumulative carbon over hours [from, to) for a load of
// 1 kW, i.e. the plain sum of the hourly intensities.
func (t *Trace) Sum(from, to int) float64 {
	var s float64
	for _, v := range t.CI[from:to] {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean intensity of the whole trace.
func (t *Trace) Mean() float64 {
	if len(t.CI) == 0 {
		return 0
	}
	return t.Sum(0, len(t.CI)) / float64(len(t.CI))
}

// Validate reports whether the trace is well formed: non-empty, hourly,
// and with finite non-negative samples.
func (t *Trace) Validate() error {
	if t.Region == "" {
		return errors.New("trace: empty region code")
	}
	if len(t.CI) == 0 {
		return errors.New("trace: no samples")
	}
	for i, v := range t.CI {
		if v < 0 || v != v /* NaN */ {
			return fmt.Errorf("trace: bad sample %v at hour %d", v, i)
		}
	}
	return nil
}

// Set is an aligned collection of traces: every member shares the same
// start time and length, so hour index i refers to the same wall-clock
// hour in every region.
type Set struct {
	byRegion map[string]*Trace
	order    []string // deterministic iteration order (sorted codes)
	start    time.Time
	length   int
}

// NewSet builds a Set from traces, verifying alignment.
func NewSet(traces []*Trace) (*Set, error) {
	if len(traces) == 0 {
		return nil, errors.New("trace: empty set")
	}
	s := &Set{
		byRegion: make(map[string]*Trace, len(traces)),
		start:    traces[0].Start,
		length:   traces[0].Len(),
	}
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("trace: region %s: %w", tr.Region, err)
		}
		if !tr.Start.Equal(s.start) || tr.Len() != s.length {
			return nil, fmt.Errorf("trace: region %s misaligned (start %v len %d, want %v len %d)",
				tr.Region, tr.Start, tr.Len(), s.start, s.length)
		}
		if _, dup := s.byRegion[tr.Region]; dup {
			return nil, fmt.Errorf("trace: duplicate region %s", tr.Region)
		}
		s.byRegion[tr.Region] = tr
		s.order = append(s.order, tr.Region)
	}
	sort.Strings(s.order)
	return s, nil
}

// Regions returns the region codes in sorted order.
func (s *Set) Regions() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Get returns the trace for a region code.
func (s *Set) Get(region string) (*Trace, bool) {
	tr, ok := s.byRegion[region]
	return tr, ok
}

// MustGet returns the trace for region or panics; use only with codes
// known to exist (e.g. from Regions).
func (s *Set) MustGet(region string) *Trace {
	tr, ok := s.byRegion[region]
	if !ok {
		panic("trace: unknown region " + region)
	}
	return tr
}

// Len returns the number of hourly samples common to all traces.
func (s *Set) Len() int { return s.length }

// Start returns the shared start timestamp.
func (s *Set) Start() time.Time { return s.start }

// Size returns the number of regions.
func (s *Set) Size() int { return len(s.order) }

// Year returns a Set restricted to calendar year y.
func (s *Set) Year(y int) (*Set, error) {
	traces := make([]*Trace, 0, len(s.order))
	for _, code := range s.order {
		yr, err := s.byRegion[code].Year(y)
		if err != nil {
			return nil, err
		}
		traces = append(traces, yr)
	}
	return NewSet(traces)
}

// Subset returns a Set containing only the listed regions.
func (s *Set) Subset(regions []string) (*Set, error) {
	traces := make([]*Trace, 0, len(regions))
	for _, code := range regions {
		tr, ok := s.byRegion[code]
		if !ok {
			return nil, fmt.Errorf("trace: subset region %s not in set", code)
		}
		traces = append(traces, tr)
	}
	return NewSet(traces)
}

// MinAt returns the region with the lowest intensity at hour i and that
// intensity. Ties break toward the lexically smaller region code so the
// result is deterministic.
func (s *Set) MinAt(i int) (string, float64) {
	best, bestV := "", 0.0
	for _, code := range s.order {
		v := s.byRegion[code].CI[i]
		if best == "" || v < bestV {
			best, bestV = code, v
		}
	}
	return best, bestV
}

// MinSeries returns, for every hour, the minimum intensity across the
// set. This is the ∞-migration lower envelope.
func (s *Set) MinSeries() []float64 {
	out := make([]float64, s.length)
	for i := range out {
		_, out[i] = s.MinAt(i)
	}
	return out
}

// GlobalMean returns the mean of the per-region mean intensities, the
// paper's "global average carbon intensity" reference.
func (s *Set) GlobalMean() float64 {
	var sum float64
	for _, code := range s.order {
		sum += s.byRegion[code].Mean()
	}
	return sum / float64(len(s.order))
}

// WriteCSV writes the set in long format: region,timestamp,ci.
func (s *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"region", "timestamp", "carbon_intensity_gco2eq_kwh"}); err != nil {
		return err
	}
	for _, code := range s.order {
		tr := s.byRegion[code]
		for i, v := range tr.CI {
			rec := []string{
				code,
				tr.TimeAt(i).Format(time.RFC3339),
				strconv.FormatFloat(v, 'f', 3, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a set in the format produced by WriteCSV.
func ReadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	if header[0] != "region" {
		return nil, fmt.Errorf("trace: unexpected CSV header %v", header)
	}
	type partial struct {
		start time.Time
		ci    []float64
	}
	parts := make(map[string]*partial)
	var order []string
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV: %w", err)
		}
		ts, err := time.Parse(time.RFC3339, rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: bad timestamp %q: %w", rec[1], err)
		}
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad intensity %q: %w", rec[2], err)
		}
		p, ok := parts[rec[0]]
		if !ok {
			p = &partial{start: ts}
			parts[rec[0]] = p
			order = append(order, rec[0])
		}
		p.ci = append(p.ci, v)
	}
	traces := make([]*Trace, 0, len(parts))
	for _, code := range order {
		p := parts[code]
		traces = append(traces, New(code, p.start, p.ci))
	}
	return NewSet(traces)
}
