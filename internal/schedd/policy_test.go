package schedd

import (
	"math"
	"testing"

	"carbonshift/internal/sched"
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
			// History to take the percentile of, then a step past it.
			admit(t, world{policy: policy, slots: 2}, hour(2), send(ok, JobRequest{Origin: "DIRTY", LengthHours: 2, SlackHours: 4}), hour(5))
		}
	}
	if _, err := PolicyByName("fifo", 150, 24); err != nil {
		t.Errorf("an ungated policy refused the percentile it ignores: %v", err)
	}
}

// TestPolicyResolvesFromStats: /v1/stats echoes a policy's name and gate
// parameters, and PolicyByName resolves them, as a follower does, back
// to the server's policy, for each of the five with parameters off their
// flag defaults. A follower that resolved the gated policies from its
// own flags could run another gate than its primary's without any error.
func TestPolicyResolvesFromStats(t *testing.T) {
	for _, want := range []sched.Policy{
		sched.FIFO{},
		sched.CarbonGate{Percentile: 20, Window: 24},
		sched.ForecastGate{Percentile: 62.5},
		sched.GreenestFirst{},
		sched.SpatioTemporal{Percentile: 80, Window: 36},
	} {
		c := newCluster(t, world{policy: want, slots: 2, memory: true})
		st, err := c.primary.client.Stats(c.ctx)
		if err != nil {
			t.Fatal(err)
		}
		var gate GateParams
		if st.Gate != nil {
			gate = *st.Gate
		}
		got, err := PolicyByName(st.Policy, gate.Percentile, gate.Window)
		if err != nil || got != want {
			t.Errorf("stats %s %+v resolve to %+v (err %v), want %+v", st.Policy, st.Gate, got, err, want)
		}
	}
}
