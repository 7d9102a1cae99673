package schedd

import (
	"context"
	"math"
	"testing"
)

// TestPolicyByNameRejectsBadPercentile: a gated policy is resolved only
// with a percentile in [0, 100]. One outside it (NaN included) used to
// be accepted and then panic the first Step that had an hour of history
// to take the percentile of — every later request that advanced the
// clock failed the same way. The boundaries themselves are accepted and
// step past that hour.
func TestPolicyByNameRejectsBadPercentile(t *testing.T) {
	for _, name := range []string{"carbon-gate", "forecast-gate", "spatiotemporal"} {
		for _, p := range []float64{-1, 100.5, 150, math.NaN(), math.Inf(1)} {
			if _, err := PolicyByName(name, p, 24); err == nil {
				t.Errorf("%s: percentile %v accepted", name, p)
			}
		}
		for _, p := range []float64{0, 100} {
			policy, err := PolicyByName(name, p, 24)
			if err != nil {
				t.Fatalf("%s: percentile %v refused: %v", name, p, err)
			}
			_, client, clock := startServer(t, Config{Policy: policy}, 2)
			ctx := context.Background()
			clock.hour.Store(2) // history to take the percentile of
			ack, err := client.Submit(ctx, JobRequest{Origin: "DIRTY", LengthHours: 2, SlackHours: 4})
			if err != nil {
				t.Fatal(err)
			}
			clock.hour.Store(5)
			if _, err := client.Job(ctx, ack.IDs[0]); err != nil {
				t.Fatalf("%s at percentile %v: lookup after stepping: %v", name, p, err)
			}
		}
	}
	if _, err := PolicyByName("fifo", 150, 24); err != nil {
		t.Errorf("an ungated policy refused the percentile it ignores: %v", err)
	}
}
