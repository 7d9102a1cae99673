package spatial

import (
	"math"
	"testing"

	"carbonshift/internal/trace"
)

// defaultMigration is a mid-size batch job: 64 GB of state at 4 Wh/GB
// charged at a 400 g/kWh world-average-ish intensity.
var defaultMigration = MigrationCost{StateGB: 64, WhPerGB: 4, IntensityG: 400}

func TestPerMove(t *testing.T) {
	m := MigrationCost{StateGB: 100, WhPerGB: 5, IntensityG: 400}
	// 100 GB * 5 Wh = 500 Wh = 0.5 kWh * 400 g = 200 g.
	if got := m.PerMove(); math.Abs(got-200) > 1e-9 {
		t.Fatalf("PerMove = %v, want 200", got)
	}
	if defaultMigration.PerMove() <= 0 {
		t.Fatal("default migration is free")
	}
	if err := (MigrationCost{StateGB: -1}).Validate(); err == nil {
		t.Fatal("negative state accepted")
	}
}

func TestInfMigrationWithZeroOverheadMatchesFree(t *testing.T) {
	set := mkSet(t, map[string][]float64{
		"A": {10, 100, 10, 100},
		"B": {100, 10, 100, 10},
	})
	free, err := infMigrationCost(set, set.Regions(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	withZero, moves, err := InfMigrationWithOverhead(set, set.Regions(), 0, 4, MigrationCost{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(free-withZero) > 1e-9 {
		t.Fatalf("zero-overhead cost %v != free cost %v", withZero, free)
	}
	if moves != 3 {
		t.Fatalf("moves = %d, want 3 (hop every hour)", moves)
	}
}

func TestInfMigrationOverheadCharged(t *testing.T) {
	set := mkSet(t, map[string][]float64{
		"A": {10, 100},
		"B": {100, 10},
	})
	cost := MigrationCost{StateGB: 10, WhPerGB: 10, IntensityG: 1000} // 100 g per move
	got, moves, err := InfMigrationWithOverhead(set, set.Regions(), 0, 2, cost)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 1 {
		t.Fatalf("moves = %d", moves)
	}
	// Hours: A(10) then B(10) plus one 100 g move.
	if math.Abs(got-120) > 1e-9 {
		t.Fatalf("cost = %v, want 120", got)
	}
}

func TestInfMigrationNoHopNoOverhead(t *testing.T) {
	set := mkSet(t, map[string][]float64{
		"A": {10, 10, 10},
		"B": {100, 100, 100},
	})
	got, moves, err := InfMigrationWithOverhead(set, set.Regions(), 0, 3, defaultMigration)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Fatalf("moves = %d, want 0 (stable ranking)", moves)
	}
	if math.Abs(got-30) > 1e-9 {
		t.Fatalf("cost = %v, want 30", got)
	}
}

func TestInfMigrationOverheadErrors(t *testing.T) {
	set := mkSet(t, map[string][]float64{"A": {1, 2}})
	if _, _, err := InfMigrationWithOverhead(set, nil, 0, 1, defaultMigration); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, _, err := InfMigrationWithOverhead(set, []string{"A"}, 1, 2, defaultMigration); err == nil {
		t.Error("overrun accepted")
	}
	if _, _, err := InfMigrationWithOverhead(set, []string{"A"}, 0, 1, MigrationCost{StateGB: -1}); err == nil {
		t.Error("invalid cost accepted")
	}
	if _, _, err := InfMigrationWithOverhead(set, []string{"NOPE"}, 0, 1, MigrationCost{}); err == nil {
		t.Error("unknown candidate accepted")
	}
}

// breakEven returns the per-move overhead at which overhead-free
// ∞-migration's advantage over 1-migration disappears for one job,
// with the raw advantage and the move count.
func breakEven(t *testing.T, set *trace.Set, arrival, length int) (perMoveG, advantageG float64, moves int) {
	t.Helper()
	one, _, err := OneMigrationCost(set, set.Regions(), arrival, length)
	if err != nil {
		t.Fatal(err)
	}
	free, moves, err := InfMigrationWithOverhead(set, set.Regions(), arrival, length, MigrationCost{})
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		return 0, one - free, 0
	}
	return (one - free) / float64(moves), one - free, moves
}

func TestBreakEvenOverhead(t *testing.T) {
	// Alternating ranking: ∞-migration saves 90 g/hop opportunity but
	// needs a hop every hour.
	set := mkSet(t, map[string][]float64{
		"A": {10, 100, 10, 100},
		"B": {100, 10, 100, 10},
	})
	perMove, advantage, moves := breakEven(t, set, 0, 4)
	// 1-migration: stay in A (mean 55 each; A chosen by tie-break on
	// equal means? A mean 55, B mean 55; lexical tie-break -> A) cost
	// 220. Free hopping: 40. Advantage 180 over 3 moves = 60 g/move.
	if moves != 3 {
		t.Fatalf("moves = %d", moves)
	}
	if math.Abs(advantage-180) > 1e-9 {
		t.Fatalf("advantage = %v, want 180", advantage)
	}
	if math.Abs(perMove-60) > 1e-9 {
		t.Fatalf("break-even = %v, want 60", perMove)
	}
}

func TestBreakEvenNoMoves(t *testing.T) {
	set := mkSet(t, map[string][]float64{
		"A": {10, 10},
		"B": {500, 500},
	})
	perMove, advantage, moves := breakEven(t, set, 0, 2)
	if moves != 0 || perMove != 0 || math.Abs(advantage) > 1e-9 {
		t.Fatalf("stable ranking gave perMove=%v advantage=%v moves=%d", perMove, advantage, moves)
	}
}

// TestOverheadInvertsAdvantage is the ablation's punchline: with a
// realistic per-move cost, the clairvoyant hopping policy becomes
// *worse* than migrating once whenever rankings flip often.
func TestOverheadInvertsAdvantage(t *testing.T) {
	ci := map[string][]float64{
		"A": make([]float64, 48),
		"B": make([]float64, 48),
	}
	for h := 0; h < 48; h++ {
		// Rankings flip every hour but the gap is small (5 g).
		if h%2 == 0 {
			ci["A"][h], ci["B"][h] = 100, 105
		} else {
			ci["A"][h], ci["B"][h] = 105, 100
		}
	}
	set := mkSet(t, ci)
	one, _, err := OneMigrationCost(set, set.Regions(), 0, 48)
	if err != nil {
		t.Fatal(err)
	}
	withOverhead, moves, err := InfMigrationWithOverhead(set, set.Regions(), 0, 48, defaultMigration)
	if err != nil {
		t.Fatal(err)
	}
	if moves < 40 {
		t.Fatalf("moves = %d, expected near-hourly hopping", moves)
	}
	if withOverhead <= one {
		t.Fatalf("overhead did not invert the advantage: hopping %v vs once %v", withOverhead, one)
	}
}
