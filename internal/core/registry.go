package core

import (
	"context"
	"fmt"
	"sort"
)

// Experiment ties a paper figure to its reproduction.
type Experiment struct {
	// ID is the short identifier used on the command line, e.g.
	// "fig5a".
	ID string
	// Figure is the paper figure it regenerates.
	Figure string
	// Title summarizes the experiment.
	Title string
	// run executes the experiment against a Lab (receiver-first because
	// the registry stores method expressions).
	run func(l *Lab, ctx context.Context) (*Table, error)
}

// Run executes the experiment against the Lab, fanning its independent
// cells across the lab's worker pool. Cancelling ctx aborts the run.
func (e Experiment) Run(ctx context.Context, l *Lab) (*Table, error) {
	return e.run(l, ctx)
}

// Experiments lists every reproduction in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1", "Example carbon traces and generation mixes", (*Lab).Fig1},
		{"fig3a", "Figure 3(a)", "Mean carbon intensity vs daily CV", (*Lab).Fig3a},
		{"fig3b", "Figure 3(b)", "Change in CI and CV over the study period", (*Lab).Fig3b},
		{"fig4", "Figure 4", "Periodicity scores for datacenter regions", (*Lab).Fig4},
		{"fig5a", "Figure 5(a)", "Spatial shifting with infinite capacity", (*Lab).Fig5a},
		{"fig5b", "Figure 5(b)", "Spatial shifting at 50% idle capacity", (*Lab).Fig5b},
		{"fig5c", "Figure 5(c)", "Reduction vs idle capacity", (*Lab).Fig5c},
		{"fig6a", "Figure 6(a)", "Reduction vs latency SLO", (*Lab).Fig6a},
		{"fig6b", "Figure 6(b)", "1-migration vs ∞-migration", (*Lab).Fig6b},
		{"fig7", "Figure 7", "Deferrability savings by job length", (*Lab).Fig7},
		{"fig8", "Figure 8", "Interruptibility savings by job length", (*Lab).Fig8},
		{"fig9", "Figure 9", "Combined temporal savings (% of global mean)", (*Lab).Fig9},
		{"fig10", "Figure 10(a-c)", "Fleet savings by job-length distribution", (*Lab).Fig10},
		{"fig10d", "Figure 10(d)", "Fleet savings vs slack", (*Lab).Fig10d},
		{"fig11a", "Figure 11(a)", "Mixed migratable/non-migratable workloads", (*Lab).Fig11a},
		{"fig11b", "Figure 11(b)", "Forecast-error impact", (*Lab).Fig11b},
		{"fig11c", "Figure 11(c)", "Greener grid, temporal scheduling", (*Lab).Fig11c},
		{"fig11d", "Figure 11(d)", "Greener grid, spatial scheduling", (*Lab).Fig11d},
		{"fig12", "Figure 12", "Combined spatial+temporal shifting", (*Lab).Fig12},
		{"ext-forecast", "§6.2 extension", "Forecast-model MAPE and scheduling cost", (*Lab).ExtForecast},
		{"ext-contention", "§5.2.5 extension", "Scheduler savings under capacity contention", (*Lab).ExtContention},
		{"ext-overhead", "§5.1.4 extension", "∞-migration advantage under migration overheads", (*Lab).ExtOverhead},
	}
}

// Studies lists the analyses beyond the paper's figures. They run by
// ID like experiments (carbonlimits -exp), but -all, the report and the
// offline benchmark walk Experiments only, so no study moves their
// tables.
func Studies() []Experiment {
	return []Experiment{
		{"policies", "§5.2.5 study", "Five scheduling policies on finite clusters", (*Lab).Policies},
	}
}

// ExperimentByID looks up one experiment or study.
func ExperimentByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range append(Experiments(), Studies()...) {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (known: %v)", id, ids)
}
