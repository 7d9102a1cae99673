// Package spatial implements the paper's spatial workload-shifting
// policies (§3.2.2, §5.1): one-time migration to the greenest region,
// clairvoyant per-hour region hopping (∞-migration), and greedy
// capacity-constrained placement with optional latency reachability.
//
// As in the paper, migration overheads are ignored (upper bounds), and
// "greenest" is judged by annual mean carbon intensity for one-shot
// migration and by instantaneous intensity for region hopping.
package spatial

import (
	"fmt"
	"sort"

	"carbonshift/internal/trace"
)

// LowestMeanRegion returns the candidate region with the lowest mean
// carbon intensity over the trace set, and that mean. Candidates must
// be non-empty and present in the set. Ties break to the lexically
// smaller code.
func LowestMeanRegion(set *trace.Set, candidates []string) (string, float64, error) {
	if len(candidates) == 0 {
		return "", 0, fmt.Errorf("spatial: no candidate regions")
	}
	best, bestMean := "", 0.0
	for _, code := range candidates {
		tr, ok := set.Get(code)
		if !ok {
			return "", 0, fmt.Errorf("spatial: region %q not in trace set", code)
		}
		m := tr.Mean()
		if best == "" || m < bestMean || (m == bestMean && code < best) {
			best, bestMean = code, m
		}
	}
	return best, bestMean, nil
}

// CostInRegion returns the carbon cost of running a 1 kW job of the
// given length starting at hour `arrival` entirely in one region.
func CostInRegion(set *trace.Set, region string, arrival, length int) (float64, error) {
	tr, ok := set.Get(region)
	if !ok {
		return 0, fmt.Errorf("spatial: region %q not in trace set", region)
	}
	if err := checkWindow(tr.Len(), arrival, length); err != nil {
		return 0, err
	}
	return tr.Sum(arrival, arrival+length), nil
}

// OneMigrationCost runs the job in the lowest-mean candidate region
// (the paper's 1-migration policy: migrate once, then run to
// completion). It returns the cost and the chosen destination.
func OneMigrationCost(set *trace.Set, candidates []string, arrival, length int) (float64, string, error) {
	dest, _, err := LowestMeanRegion(set, candidates)
	if err != nil {
		return 0, "", err
	}
	cost, err := CostInRegion(set, dest, arrival, length)
	if err != nil {
		return 0, "", err
	}
	return cost, dest, nil
}

// MinSeries returns the per-hour minimum intensity over the candidate
// regions — the ∞-migration envelope. Precomputing it turns repeated
// per-hour scans of the candidates into prefix-sum lookups.
func MinSeries(set *trace.Set, candidates []string) ([]float64, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("spatial: no candidate regions")
	}
	out := make([]float64, set.Len())
	for i, code := range candidates {
		tr, ok := set.Get(code)
		if !ok {
			return nil, fmt.Errorf("spatial: region %q not in trace set", code)
		}
		if i == 0 {
			copy(out, tr.CI)
			continue
		}
		for h, v := range tr.CI {
			if v < out[h] {
				out[h] = v
			}
		}
	}
	return out, nil
}

func checkWindow(n, arrival, length int) error {
	if length < 1 {
		return fmt.Errorf("spatial: job length %d must be >= 1", length)
	}
	if arrival < 0 || arrival+length > n {
		return fmt.Errorf("spatial: window [%d, %d) outside trace of %d hours", arrival, arrival+length, n)
	}
	return nil
}

// Node is one region's standing in a capacity assignment: its mean
// carbon intensity, the workload it must place (in arbitrary capacity
// units), and the idle capacity it offers to others.
type Node struct {
	Code     string
	MeanCI   float64
	Workload float64
	Idle     float64
}

// Move records workload relocated from one region to another.
type Move struct {
	From, To string
	Amount   float64
}

// Assignment is the outcome of a capacity-constrained placement.
type Assignment struct {
	// Moves lists all relocations, in the order they were made.
	Moves []Move
	// AchievedCI maps each region to the mean carbon intensity its
	// workload actually experiences after migration (weighted across
	// kept and moved portions). Regions with zero workload map to
	// their own intensity.
	AchievedCI map[string]float64
	// EmissionRate is the workload-weighted mean intensity across all
	// regions after migration — the system-wide g·CO₂eq per kWh.
	EmissionRate float64
	// BaselineRate is the same quantity with no migration.
	BaselineRate float64
}

// Reduction returns the absolute drop in the system-wide emission rate.
func (a Assignment) Reduction() float64 { return a.BaselineRate - a.EmissionRate }

// AssignCapacity places workloads greedily: the dirtiest region moves
// as much of its workload as possible into the cleanest reachable
// region with idle capacity, then the next dirtiest, and so on —
// exactly the upper-bound heuristic of §5.1.2. Work only moves to
// strictly cleaner regions. The reachable predicate constrains
// candidate destinations (nil means unconstrained); it is how latency
// SLOs and geographic groupings enter (§5.1.3).
func AssignCapacity(nodes []Node, reachable func(from, to string) bool) (Assignment, error) {
	if len(nodes) == 0 {
		return Assignment{}, fmt.Errorf("spatial: no nodes")
	}
	var totalWork float64
	for _, n := range nodes {
		if n.Workload < 0 || n.Idle < 0 {
			return Assignment{}, fmt.Errorf("spatial: node %s has negative workload or idle", n.Code)
		}
		totalWork += n.Workload
	}
	if totalWork == 0 {
		return Assignment{}, fmt.Errorf("spatial: no workload to place")
	}

	// Sources dirtiest-first, sinks cleanest-first. Ties break on code
	// for determinism.
	sources := make([]int, len(nodes))
	sinks := make([]int, len(nodes))
	for i := range nodes {
		sources[i], sinks[i] = i, i
	}
	sort.Slice(sources, func(a, b int) bool {
		if nodes[sources[a]].MeanCI != nodes[sources[b]].MeanCI {
			return nodes[sources[a]].MeanCI > nodes[sources[b]].MeanCI
		}
		return nodes[sources[a]].Code < nodes[sources[b]].Code
	})
	sort.Slice(sinks, func(a, b int) bool {
		if nodes[sinks[a]].MeanCI != nodes[sinks[b]].MeanCI {
			return nodes[sinks[a]].MeanCI < nodes[sinks[b]].MeanCI
		}
		return nodes[sinks[a]].Code < nodes[sinks[b]].Code
	})

	idle := make([]float64, len(nodes))
	remaining := make([]float64, len(nodes))
	movedCost := make([]float64, len(nodes)) // Σ amount · destCI per source
	movedAmt := make([]float64, len(nodes))
	for i, n := range nodes {
		idle[i] = n.Idle
		remaining[i] = n.Workload
	}

	var moves []Move
	var baseline float64
	for _, n := range nodes {
		baseline += n.Workload * n.MeanCI
	}

	for _, s := range sources {
		src := nodes[s]
		for _, d := range sinks {
			if remaining[s] <= 0 {
				break
			}
			dst := nodes[d]
			if d == s || idle[d] <= 0 {
				continue
			}
			if dst.MeanCI >= src.MeanCI {
				break // sinks are sorted; nothing cleaner remains
			}
			if reachable != nil && !reachable(src.Code, dst.Code) {
				continue
			}
			amt := remaining[s]
			if amt > idle[d] {
				amt = idle[d]
			}
			remaining[s] -= amt
			idle[d] -= amt
			movedCost[s] += amt * dst.MeanCI
			movedAmt[s] += amt
			moves = append(moves, Move{From: src.Code, To: dst.Code, Amount: amt})
		}
	}

	achieved := make(map[string]float64, len(nodes))
	var total float64
	for i, n := range nodes {
		cost := remaining[i]*n.MeanCI + movedCost[i]
		total += cost
		if n.Workload > 0 {
			achieved[n.Code] = cost / n.Workload
		} else {
			achieved[n.Code] = n.MeanCI
		}
	}
	return Assignment{
		Moves:        moves,
		AchievedCI:   achieved,
		EmissionRate: total / totalWork,
		BaselineRate: baseline / totalWork,
	}, nil
}

// UniformNodes builds the symmetric scenario of Figure 5(b–c): every
// region has capacity 1, carries workload 1-idle, and offers idle
// capacity idle.
func UniformNodes(set *trace.Set, idle float64) ([]Node, error) {
	if idle < 0 || idle > 1 {
		return nil, fmt.Errorf("spatial: idle fraction %v outside [0, 1]", idle)
	}
	codes := set.Regions()
	nodes := make([]Node, len(codes))
	for i, code := range codes {
		nodes[i] = Node{
			Code:     code,
			MeanCI:   set.MustGet(code).Mean(),
			Workload: 1 - idle,
			Idle:     idle,
		}
	}
	return nodes, nil
}
