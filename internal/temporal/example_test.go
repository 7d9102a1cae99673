package temporal_test

import (
	"fmt"

	"carbonshift/internal/temporal"
)

// A 2-hour job with 3 hours of slack in a valley-shaped trace: the
// deferred policy finds the cheapest contiguous window, the
// interruptible policy the cheapest hours overall.
func ExampleEvaluate() {
	ci := []float64{30, 38, 10, 4, 16, 25, 40}
	res, err := temporal.Evaluate(ci, 0, 2, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("run now: %.0f g\n", res.Baseline)
	fmt.Printf("deferred to hour %d: %.0f g\n", res.Start, res.Deferred)
	fmt.Printf("interruptible: %.0f g\n", res.Interrupted)
	// Output:
	// run now: 68 g
	// deferred to hour 2: 14 g
	// interruptible: 14 g
}

// Sweep evaluates every arrival hour at once; Reduce condenses the
// result into the paper's mean-savings quantities.
func ExampleCosts_Reduce() {
	ci := []float64{100, 10, 100, 10, 100, 10, 100, 10}
	costs, err := temporal.Sweep(ci, 1, 2, 4)
	if err != nil {
		panic(err)
	}
	ms := costs.Reduce()
	fmt.Printf("mean baseline %.0f g, mean deferral saving %.0f g\n",
		ms.Baseline, ms.DeferSaving)
	// Output:
	// mean baseline 55 g, mean deferral saving 45 g
}
