package spatial

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/trace"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func mkSet(t *testing.T, series map[string][]float64) *trace.Set {
	t.Helper()
	var traces []*trace.Trace
	for code, ci := range series {
		traces = append(traces, trace.New(code, t0, ci))
	}
	s, err := trace.NewSet(traces)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testSet(t *testing.T) *trace.Set {
	return mkSet(t, map[string][]float64{
		"CLEAN": {10, 12, 11, 9},
		"MID":   {100, 50, 120, 80},
		"DIRTY": {700, 720, 690, 710},
	})
}

func TestLowestMeanRegion(t *testing.T) {
	set := testSet(t)
	code, mean, err := LowestMeanRegion(set, set.Regions())
	if err != nil {
		t.Fatal(err)
	}
	if code != "CLEAN" || math.Abs(mean-10.5) > 1e-9 {
		t.Fatalf("lowest = %s (%v)", code, mean)
	}
	// Restricting candidates changes the answer.
	code, _, err = LowestMeanRegion(set, []string{"MID", "DIRTY"})
	if err != nil || code != "MID" {
		t.Fatalf("restricted lowest = %s, %v", code, err)
	}
	if _, _, err := LowestMeanRegion(set, nil); err == nil {
		t.Fatal("empty candidates accepted")
	}
	if _, _, err := LowestMeanRegion(set, []string{"NOPE"}); err == nil {
		t.Fatal("unknown candidate accepted")
	}
}

func TestCostInRegion(t *testing.T) {
	set := testSet(t)
	got, err := CostInRegion(set, "MID", 1, 2)
	if err != nil || got != 170 {
		t.Fatalf("cost = %v, %v", got, err)
	}
	if _, err := CostInRegion(set, "MID", 3, 2); err == nil {
		t.Fatal("overrun accepted")
	}
	if _, err := CostInRegion(set, "MID", 0, 0); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := CostInRegion(set, "NOPE", 0, 1); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestOneMigrationCost(t *testing.T) {
	set := testSet(t)
	cost, dest, err := OneMigrationCost(set, set.Regions(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dest != "CLEAN" || cost != 42 {
		t.Fatalf("one-migration = %v to %s", cost, dest)
	}
}

// infMigrationCost runs the job hopping every hour to the candidate
// region with the lowest instantaneous intensity (the clairvoyant
// ∞-migrations policy), scanning the candidates hour by hour. Overheads
// are ignored. It is the per-hour reference MinSeries and
// InfMigrationWithOverhead are held to.
func infMigrationCost(set *trace.Set, candidates []string, arrival, length int) (float64, error) {
	if len(candidates) == 0 {
		return 0, fmt.Errorf("spatial: no candidate regions")
	}
	if err := checkWindow(set.Len(), arrival, length); err != nil {
		return 0, err
	}
	var cost float64
	for h := arrival; h < arrival+length; h++ {
		best := 0.0
		for i, code := range candidates {
			tr, ok := set.Get(code)
			if !ok {
				return 0, fmt.Errorf("spatial: region %q not in trace set", code)
			}
			v := tr.At(h)
			if i == 0 || v < best {
				best = v
			}
		}
		cost += best
	}
	return cost, nil
}

func TestInfMigrationCost(t *testing.T) {
	// CLEAN is cheapest except hour 1, where ALT dips below.
	set := mkSet(t, map[string][]float64{
		"CLEAN": {10, 12, 11, 9},
		"ALT":   {50, 5, 50, 50},
	})
	cost, err := infMigrationCost(set, set.Regions(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10.0 + 5 + 11 + 9; cost != want {
		t.Fatalf("inf-migration = %v, want %v", cost, want)
	}
	if _, err := infMigrationCost(set, nil, 0, 1); err == nil {
		t.Fatal("empty candidates accepted")
	}
	if _, err := infMigrationCost(set, []string{"NOPE"}, 0, 1); err == nil {
		t.Fatal("unknown candidate accepted")
	}
	if _, err := infMigrationCost(set, set.Regions(), 3, 2); err == nil {
		t.Fatal("overrun accepted")
	}
}

func TestInfNeverWorseThanOne(t *testing.T) {
	src := rng.New(3)
	series := make(map[string][]float64)
	for _, code := range []string{"A", "B", "C", "D"} {
		ci := make([]float64, 300)
		base := src.Uniform(50, 600)
		for i := range ci {
			ci[i] = base + src.Uniform(-40, 40)
		}
		series[code] = ci
	}
	set := mkSet(t, series)
	for arrival := 0; arrival < 250; arrival += 13 {
		one, _, err := OneMigrationCost(set, set.Regions(), arrival, 48)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := infMigrationCost(set, set.Regions(), arrival, 48)
		if err != nil {
			t.Fatal(err)
		}
		if inf > one+1e-9 {
			t.Fatalf("arrival %d: inf-migration %v worse than one-migration %v", arrival, inf, one)
		}
	}
}

func TestMinSeriesMatchesInfMigration(t *testing.T) {
	set := testSet(t)
	min, err := MinSeries(set, set.Regions())
	if err != nil {
		t.Fatal(err)
	}
	var manual float64
	for _, v := range min {
		manual += v
	}
	inf, err := infMigrationCost(set, set.Regions(), 0, set.Len())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(manual-inf) > 1e-9 {
		t.Fatalf("MinSeries sum %v != infMigrationCost %v", manual, inf)
	}
	if _, err := MinSeries(set, nil); err == nil {
		t.Fatal("empty candidates accepted")
	}
	if _, err := MinSeries(set, []string{"NOPE"}); err == nil {
		t.Fatal("unknown candidate accepted")
	}
}

func nodesFor(ci map[string]float64, workload, idle float64) []Node {
	var out []Node
	for code, mean := range ci {
		out = append(out, Node{Code: code, MeanCI: mean, Workload: workload, Idle: idle})
	}
	return out
}

func TestAssignCapacityPairsExtremes(t *testing.T) {
	nodes := nodesFor(map[string]float64{"A": 700, "B": 400, "C": 100, "D": 20}, 0.5, 0.5)
	a, err := AssignCapacity(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dirtiest (A) fills the cleanest sink (D); B fills C.
	if math.Abs(a.AchievedCI["A"]-20) > 1e-9 {
		t.Errorf("A achieved %v, want 20", a.AchievedCI["A"])
	}
	if math.Abs(a.AchievedCI["B"]-100) > 1e-9 {
		t.Errorf("B achieved %v, want 100", a.AchievedCI["B"])
	}
	// Clean regions keep their own work.
	if math.Abs(a.AchievedCI["C"]-100) > 1e-9 || math.Abs(a.AchievedCI["D"]-20) > 1e-9 {
		t.Errorf("clean regions moved: C=%v D=%v", a.AchievedCI["C"], a.AchievedCI["D"])
	}
	wantRate := (20.0 + 100 + 100 + 20) / 4
	if math.Abs(a.EmissionRate-wantRate) > 1e-9 {
		t.Errorf("emission rate %v, want %v", a.EmissionRate, wantRate)
	}
	if math.Abs(a.BaselineRate-305) > 1e-9 {
		t.Errorf("baseline rate %v, want 305", a.BaselineRate)
	}
	if a.Reduction() <= 0 {
		t.Error("no reduction")
	}
}

func TestAssignCapacitySplitsAcrossSinks(t *testing.T) {
	// One big dirty source, two small clean sinks.
	nodes := []Node{
		{Code: "DIRTY", MeanCI: 800, Workload: 1.0, Idle: 0},
		{Code: "C1", MeanCI: 10, Workload: 0, Idle: 0.4},
		{Code: "C2", MeanCI: 20, Workload: 0, Idle: 0.4},
	}
	a, err := AssignCapacity(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 0.4 to C1 (cleanest), 0.4 to C2, 0.2 stays at 800.
	want := (0.4*10 + 0.4*20 + 0.2*800) / 1.0
	if math.Abs(a.AchievedCI["DIRTY"]-want) > 1e-9 {
		t.Fatalf("achieved %v, want %v", a.AchievedCI["DIRTY"], want)
	}
	if len(a.Moves) != 2 {
		t.Fatalf("moves = %v", a.Moves)
	}
	if a.Moves[0].To != "C1" || a.Moves[1].To != "C2" {
		t.Fatalf("sink order wrong: %v", a.Moves)
	}
}

func TestAssignCapacityNeverMovesToDirtier(t *testing.T) {
	nodes := nodesFor(map[string]float64{"A": 100, "B": 200}, 0.5, 10)
	a, err := AssignCapacity(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range a.Moves {
		if m.From == "A" {
			t.Fatalf("clean region offloaded to dirtier: %v", m)
		}
	}
	// B moves to A; emission rate must drop to A's CI.
	if math.Abs(a.EmissionRate-100) > 1e-9 {
		t.Fatalf("emission rate %v", a.EmissionRate)
	}
}

func TestAssignCapacityReachability(t *testing.T) {
	nodes := nodesFor(map[string]float64{"A": 700, "B": 10, "C": 50}, 0.5, 0.5)
	// A may only reach C.
	reach := func(from, to string) bool { return !(from == "A" && to == "B") }
	a, err := AssignCapacity(nodes, reach)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.AchievedCI["A"]-50) > 1e-9 {
		t.Fatalf("A achieved %v, want 50 (B unreachable)", a.AchievedCI["A"])
	}
}

func TestAssignCapacityZeroIdle(t *testing.T) {
	nodes := nodesFor(map[string]float64{"A": 700, "B": 10}, 1, 0)
	a, err := AssignCapacity(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Moves) != 0 || a.Reduction() != 0 {
		t.Fatalf("zero idle produced moves %v reduction %v", a.Moves, a.Reduction())
	}
}

func TestAssignCapacityErrors(t *testing.T) {
	if _, err := AssignCapacity(nil, nil); err == nil {
		t.Error("empty nodes accepted")
	}
	if _, err := AssignCapacity([]Node{{Code: "A", Workload: -1}}, nil); err == nil {
		t.Error("negative workload accepted")
	}
	if _, err := AssignCapacity([]Node{{Code: "A", Workload: 0, Idle: 1}}, nil); err == nil {
		t.Error("zero total workload accepted")
	}
}

func TestUniformNodes(t *testing.T) {
	set := testSet(t)
	nodes, err := UniformNodes(set, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	for _, n := range nodes {
		if math.Abs(n.Workload-0.7) > 1e-9 || math.Abs(n.Idle-0.3) > 1e-9 {
			t.Fatalf("node %+v", n)
		}
	}
	if _, err := UniformNodes(set, -0.1); err == nil {
		t.Error("negative idle accepted")
	}
	if _, err := UniformNodes(set, 1.1); err == nil {
		t.Error("idle > 1 accepted")
	}
}

// TestMoreIdleNeverHurts checks the Figure 5(c) monotonicity: system
// emissions fall (weakly) as idle capacity grows.
func TestMoreIdleNeverHurts(t *testing.T) {
	src := rng.New(9)
	series := make(map[string][]float64)
	for i := 0; i < 12; i++ {
		ci := make([]float64, 10)
		base := src.Uniform(20, 700)
		for h := range ci {
			ci[h] = base
		}
		series[string(rune('A'+i))] = ci
	}
	set := mkSet(t, series)
	prev := math.Inf(1)
	for _, idle := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		nodes, err := UniformNodes(set, idle)
		if err != nil {
			t.Fatal(err)
		}
		if idle == 0.99 {
			// Workload 0.01 each still must be positive for assignment.
			for i := range nodes {
				if nodes[i].Workload <= 0 {
					t.Fatal("workload vanished")
				}
			}
		}
		a, err := AssignCapacity(nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.EmissionRate > prev+1e-9 {
			t.Fatalf("emission rate rose at idle %v: %v > %v", idle, a.EmissionRate, prev)
		}
		prev = a.EmissionRate
	}
}

func TestQuickAssignConservesWorkload(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%10 + 2
		src := rng.New(seed)
		nodes := make([]Node, n)
		var totalWork float64
		for i := range nodes {
			nodes[i] = Node{
				Code:     string(rune('A' + i)),
				MeanCI:   src.Uniform(10, 800),
				Workload: src.Uniform(0.1, 1),
				Idle:     src.Uniform(0, 1),
			}
			totalWork += nodes[i].Workload
		}
		a, err := AssignCapacity(nodes, nil)
		if err != nil {
			return false
		}
		// Moved amounts never exceed source workloads or sink idle.
		moved := make(map[string]float64)
		received := make(map[string]float64)
		for _, m := range a.Moves {
			if m.Amount <= 0 {
				return false
			}
			moved[m.From] += m.Amount
			received[m.To] += m.Amount
		}
		for _, nd := range nodes {
			if moved[nd.Code] > nd.Workload+1e-9 {
				return false
			}
			if received[nd.Code] > nd.Idle+1e-9 {
				return false
			}
		}
		// Emissions never increase.
		return a.EmissionRate <= a.BaselineRate+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAssignCapacity123(b *testing.B) {
	src := rng.New(1)
	nodes := make([]Node, 123)
	for i := range nodes {
		nodes[i] = Node{
			Code:     string(rune('A'+i%26)) + string(rune('a'+i/26)),
			MeanCI:   src.Uniform(10, 800),
			Workload: 0.5,
			Idle:     0.5,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssignCapacity(nodes, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// catalog is the full 123-region, 3-year simulated set, generated once
// for every benchmark round that asks.
var catalog = sync.OnceValues(func() (*trace.Set, error) {
	return simgrid.Generate(regions.All(), simgrid.Config{Seed: 1})
})

func catalogSet(b *testing.B) (*trace.Set, []string) {
	b.Helper()
	set, err := catalog()
	if err != nil {
		b.Fatal(err)
	}
	return set, set.Regions()
}

// ∞-migration argmin: the precomputed envelope vs a year of per-hour
// scans through the Set.
func BenchmarkAblation_ArgminEnvelope(b *testing.B) {
	set, codes := catalogSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinSeries(set, codes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ArgminPerHourScan(b *testing.B) {
	set, codes := catalogSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infMigrationCost(set, codes, 0, 8760); err != nil {
			b.Fatal(err)
		}
	}
}
