package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// claims are the paper's headline findings as comparisons on the
// experiments' tables. TestHeadline holds the full seed-1 lab to every
// row, and WriteReport prints each row's margin. The bounds admit the
// synthetic-trace substitution while pinning the shape of each result;
// paper is the figure the paper reports, where it reports one.
var claims = []claim{
	// Ideal spatial shifting removes nearly all; finite capacity limits it.
	{"IdealSpatial", "fig5a", "Global reduction_pct", "96 %", within(90, 99), cell("Global", "reduction_pct")},
	{"IdealSpatial", "fig5a", "Asia − Europe reduction_g", "", above(0), both(cell("Asia", "reduction_g"), cell("Europe", "reduction_g"), sub)},
	{"CapacityConstrained", "fig5c", "idle_50% reduction_pct", "51.5 %", within(40, 60), cell("idle_50%", "reduction_pct")},
	{"CapacityConstrained", "fig5c", "idle_99% reduction_pct", "95.68 %", atLeast(90), cell("idle_99%", "reduction_pct")},
	{"CapacityConstrained", "fig5c", "idle_0% reduction_pct", "", within(0, 0), cell("idle_0%", "reduction_pct")},
	// Reductions grow with the SLO, and constrained capacity never helps.
	{"Latency", "fig6a", "first pct_infinite_capacity", "", atLeast(-1 - 1e-9), over(first, "pct_infinite_capacity")},
	{"Latency", "fig6a", "least step of pct_infinite_capacity", "", atLeast(-1e-9), over(leastStep, "pct_infinite_capacity")},
	{"Latency", "fig6a", "most pct_50_util − pct_infinite_capacity", "", atMost(1e-9), over(mostExcess, "pct_50_util", "pct_infinite_capacity")},
	{"Latency", "fig6a", "slo_250ms pct_infinite_capacity", "92.5 %", atLeast(85), cell("slo_250ms", "pct_infinite_capacity")},
	{"OneVsInfMigration", "fig6b", "least advantage_g", "", atLeast(-1e-9), over(least, "advantage_g")},
	{"OneVsInfMigration", "fig6b", "most advantage_g", "< 10 g", atMost(12), over(most, "advantage_g")},
	// Deferral savings fall with job length; interruption's peak at 24 h.
	{"TemporalShape", "fig7", "first − last one_year_slack", "", above(0), both(over(first, "one_year_slack"), over(last, "one_year_slack"), sub)},
	{"TemporalShape", "fig7", "first one_year_slack", "~154 g", atLeast(60), over(first, "one_year_slack")},
	{"TemporalShape", "fig7", "last 24h_slack", "~3 g", atMost(10), over(last, "24h_slack")},
	{"TemporalShape", "fig8", "1h one_year_slack", "0", within(-1e-6, 1e-6), cell("1h", "one_year_slack")},
	{"TemporalShape", "fig8", "168h − 6h one_year_slack", "", above(0), both(cell("168h", "one_year_slack"), cell("6h", "one_year_slack"), sub)},
	{"TemporalShape", "fig8", "24h − 1h 24h_slack", "", above(0), both(cell("24h", "24h_slack"), cell("1h", "24h_slack"), sub)},
	{"TemporalShape", "fig8", "24h − 168h 24h_slack", "", above(0), both(cell("24h", "24h_slack"), cell("168h", "24h_slack"), sub)},
	{"TemporalShape", "fig8", "24h 24h_slack", "18.4 g", within(8, 35), cell("24h", "24h_slack")},
	// The equal mix saves more than either cloud trace.
	{"Distributions", "fig10", "Global equal", "135 g", within(70, 170), cell("Global", "equal")},
	{"Distributions", "fig10", "Global equal − max(azure, google)", "", above(0), both(cell("Global", "equal"), both(cell("Global", "azure"), cell("Global", "google"), math.Max), sub)},
	{"Distributions", "fig10", "Oceania − Asia equal", "", above(0), both(cell("Oceania", "equal"), cell("Asia", "equal"), sub)},
	// 365× the slack yields far less than 365× the savings.
	{"SlackSublinear", "fig10d", "1y − 24h saving_g", "", above(0), both(cell("1y", "saving_g"), cell("24h", "saving_g"), sub)},
	{"SlackSublinear", "fig10d", "1y / 24h saving_g", "~3.1×", atMost(10), both(cell("1y", "saving_g"), cell("24h", "saving_g"), func(a, b float64) float64 { return a / b })},
	{"SlackSublinear", "fig10d", "first saving_g", "", atLeast(-1e-9), over(first, "saving_g")},
	{"SlackSublinear", "fig10d", "least step of saving_g", "", atLeast(-1e-9), over(leastStep, "saving_g")},
	{"MixedWorkloadLinear", "fig11a", "migratable_0% reduction_g", "", within(0, 0), cell("migratable_0%", "reduction_g")},
	{"MixedWorkloadLinear", "fig11a", "migratable_50% − migratable_100%/2 reduction_g", "", within(-1e-6, 1e-6),
		both(cell("migratable_50%", "reduction_g"), cell("migratable_100%", "reduction_g"), func(h, f float64) float64 { return h - f/2 })},
	// Temporal savings never flip a strongly negative spatial term.
	{"SpatialDominatesTemporal", "fig12", "SE net_1y", "", atLeast(200), cell("SE", "net_1y")},
	{"SpatialDominatesTemporal", "fig12", "US-UT net_1y", "", below(0).orAbsent(), cell("US-UT", "net_1y")},
	{"SpatialDominatesTemporal", "fig12", "IN-WE net_1y", "", below(0).orAbsent(), cell("IN-WE", "net_1y")},
	{"SpatialDominatesTemporal", "fig12", "most net_1y where spatial < −100", "", atMost(0), over(mostNetBelow100, "spatial", "net_1y")},
	// A greener grid shrinks the carbon-aware gap, in time and in space.
	{"GreenerGridShrinksGap", "fig11c", "rows", "", within(6, 6), rowCount},
	{"GreenerGridShrinksGap", "fig11c", "most step of agnostic_g", "", below(0), over(mostStep, "agnostic_g")},
	{"GreenerGridShrinksGap", "fig11c", "most step of gap_g", "", below(0), over(mostStep, "gap_g")},
	{"GreenerGridShrinksGap", "fig11d", "rows", "", within(6, 6), rowCount},
	{"GreenerGridShrinksGap", "fig11d", "most step of agnostic_g", "", below(0), over(mostStep, "agnostic_g")},
	{"GreenerGridShrinksGap", "fig11d", "most step of gap_g", "", below(0), over(mostStep, "gap_g")},
}

// A claim is one comparison: quantity, read from experiment exp's table
// by read, lies within b.
type claim struct {
	name, exp, quantity, paper string
	b                          bound
	read                       func(*Table) float64
}

// eval reads c's quantity from its experiment's table t and returns it,
// its margin (signed distance to the nearer bound) and whether c holds.
// An absent cell reads NaN, which fails unless the bound admits it.
func (c claim) eval(t *Table) (v, margin float64, pass bool) {
	v = c.read(t)
	if math.IsNaN(v) {
		return v, v, c.b.absentOK
	}
	margin = math.Inf(1)
	if !math.IsInf(c.b.lo, -1) {
		margin = v - c.b.lo
	}
	if !math.IsInf(c.b.hi, 1) {
		margin = math.Min(margin, c.b.hi-v)
	}
	return v, margin, margin > 0 || !c.b.strict && margin == 0
}

// A bound is lo ≤ v ≤ hi, or lo < v < hi when strict; absentOK passes
// a quantity whose cell is absent.
type bound struct {
	lo, hi           float64
	strict, absentOK bool
}

func within(lo, hi float64) bound { return bound{lo: lo, hi: hi} }
func atLeast(lo float64) bound    { return bound{lo: lo, hi: math.Inf(1)} }
func atMost(hi float64) bound     { return bound{lo: math.Inf(-1), hi: hi} }
func above(lo float64) bound      { return bound{lo: lo, hi: math.Inf(1), strict: true} }
func below(hi float64) bound      { return bound{lo: math.Inf(-1), hi: hi, strict: true} }
func (b bound) orAbsent() bound   { b.absentOK = true; return b }

// String writes b as an interval: [ ] closed, ( ) open.
func (b bound) String() string {
	s := "[" + claimNum(b.lo) + ", " + claimNum(b.hi) + "]"
	if b.strict {
		s = "(" + s[1:len(s)-1] + ")"
	}
	if b.absentOK {
		s += " or absent"
	}
	return s
}

// claimNum is how TestHeadline and the report print a claim's numbers.
func claimNum(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func cell(row, col string) func(*Table) float64 {
	return func(t *Table) float64 {
		if v, ok := t.Value(row, col); ok {
			return v
		}
		return math.NaN()
	}
}

// both combines a's and b's values by f.
func both(a, b func(*Table) float64, f func(x, y float64) float64) func(*Table) float64 {
	return func(t *Table) float64 { return f(a(t), b(t)) }
}

func sub(x, y float64) float64  { return x - y }
func rowCount(t *Table) float64 { return float64(len(t.Rows)) }

// over reduces the named columns, each in row order, by f; it reads NaN
// when a column is absent. The reducers below read the first column
// unless they say otherwise, and propagate NaN. least and most hold over
// no rows, as a loop over them would; first and last read NaN there.
func over(f func(cols [][]float64) float64, names ...string) func(*Table) float64 {
	return func(t *Table) float64 {
		cols := make([][]float64, len(names))
		for j, name := range names {
			i := slices.Index(t.Columns, name)
			if i < 0 {
				return math.NaN()
			}
			for _, row := range t.Rows {
				cols[j] = append(cols[j], row.Values[i])
			}
		}
		return f(cols)
	}
}

func least(c [][]float64) float64 { return slices.Min(append(c[0], math.Inf(1))) }
func most(c [][]float64) float64  { return slices.Max(append(c[0], math.Inf(-1))) }
func first(c [][]float64) float64 { return append(c[0], math.NaN())[0] }
func last(c [][]float64) float64  { return append([]float64{math.NaN()}, c[0]...)[len(c[0])] }

// leastStep and mostStep bound each row's value less the previous row's.
func leastStep(c [][]float64) float64 { return least(steps(c[0])) }
func mostStep(c [][]float64) float64  { return most(steps(c[0])) }

func steps(v []float64) [][]float64 {
	d := make([]float64, max(len(v)-1, 0))
	for i := range d {
		d[i] = v[i+1] - v[i]
	}
	return [][]float64{d}
}

// mostExcess is the most of the first column less the second.
func mostExcess(c [][]float64) float64 {
	for i := range c[0] {
		c[0][i] -= c[1][i]
	}
	return most(c)
}

// mostNetBelow100 is the most net term (second column) among the rows
// whose spatial term (first column) is below −100 or NaN.
func mostNetBelow100(c [][]float64) float64 {
	v := math.Inf(-1)
	for i, s := range c[0] {
		if s < -100 || math.IsNaN(s) {
			v = math.Max(v, c[1][i]+0*s) // 0*NaN is NaN
		}
	}
	return v
}

// writeClaims renders every claim against tables, keyed by experiment
// id; a row that fails says so in its margin.
func writeClaims(w io.Writer, tables map[string]*Table) error {
	rows := [][]string{{"claim", "figure", "quantity", "measured", "paper", "bound", "margin"}}
	for _, c := range claims {
		e, _ := ExperimentByID(c.exp) // cannot fail: TestHeadline looks up every claim's id
		v, margin, pass := c.eval(tables[c.exp])
		m := claimNum(margin)
		if !pass {
			m += " (fails)"
		}
		rows = append(rows, []string{c.name, e.Figure, c.quantity, claimNum(v), c.paper, c.b.String(), m})
	}
	fmt.Fprint(w, "## Claims\n\n")
	return writeMarkdown(w, rows)
}
