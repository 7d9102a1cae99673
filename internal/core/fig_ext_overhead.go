package core

import (
	"context"
	"fmt"

	"carbonshift/internal/engine"
	"carbonshift/internal/spatial"
)

// ExtOverhead prices the migrations the paper's ∞-migration policy
// performs for free: with a per-move carbon cost derived from job
// state size, the hopping policy's already-thin advantage over a
// single migration (< 10 g in Figure 6(b)) shrinks further and turns
// negative — closing the loop on the paper's conclusion that
// sophisticated migration policies have no practical headroom.
func (l *Lab) ExtOverhead(ctx context.Context) (*Table, error) {
	const length = 168 // a week-long job maximizes hopping opportunity
	arrivals := l.strideArrivals(length)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("core: trace too short for ext-overhead")
	}
	t := &Table{
		ID:      "ext-overhead",
		Title:   "∞-migration advantage vs per-move overhead, by geographic grouping (g·CO₂eq per job)",
		Columns: []string{"free_advantage_g", "with_8gb_job_g", "with_64gb_job_g", "break_even_g_per_move", "moves_per_job"},
	}
	costs := []spatial.MigrationCost{
		{StateGB: 8, WhPerGB: 4, IntensityG: 400},
		{StateGB: 64, WhPerGB: 4, IntensityG: 400},
	}
	var groups []Grouping
	for _, g := range l.Groupings() {
		if g.Name == "Global" {
			continue // match Figure 6(b): hopping within groupings
		}
		groups = append(groups, g)
	}
	// One (grouping, arrival) job evaluation per cell — four migration
	// policies priced against each other — reduced per grouping in
	// arrival order.
	type cell struct {
		free, small, large, breakEven, moves float64
	}
	cells, err := engine.Map(ctx, l.opts.Workers, len(groups)*len(arrivals), func(_ context.Context, i int) (cell, error) {
		g := groups[i/len(arrivals)]
		a := arrivals[i%len(arrivals)]
		one, _, err := spatial.OneMigrationCost(l.Set, g.Codes, a, length)
		if err != nil {
			return cell{}, err
		}
		zero, mv, err := spatial.InfMigrationWithOverhead(l.Set, g.Codes, a, length, spatial.MigrationCost{})
		if err != nil {
			return cell{}, err
		}
		withSmall, _, err := spatial.InfMigrationWithOverhead(l.Set, g.Codes, a, length, costs[0])
		if err != nil {
			return cell{}, err
		}
		withLarge, _, err := spatial.InfMigrationWithOverhead(l.Set, g.Codes, a, length, costs[1])
		if err != nil {
			return cell{}, err
		}
		c := cell{
			free:  one - zero,
			small: one - withSmall,
			large: one - withLarge,
			moves: float64(mv),
		}
		if mv > 0 {
			c.breakEven = (one - zero) / float64(mv)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		var acc cell
		for ai := range arrivals {
			c := cells[gi*len(arrivals)+ai]
			acc.free += c.free
			acc.small += c.small
			acc.large += c.large
			acc.breakEven += c.breakEven
			acc.moves += c.moves
		}
		f := float64(len(arrivals))
		t.AddRow(g.Name, acc.free/f, acc.small/f, acc.large/f, acc.breakEven/f, acc.moves/f)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-move costs: 8 GB job = %.1f g, 64 GB job = %.1f g; paper bounds the free advantage below 10 g, so any realistic state size erases it",
			costs[0].PerMove(), costs[1].PerMove()))
	return t, nil
}
