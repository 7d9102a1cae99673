package gateway

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/sched"
	"carbonshift/internal/trace"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// hourClock is a hand-cranked replay clock for schedd.WithClock.
type hourClock struct{ hour atomic.Int64 }

func (c *hourClock) now() time.Time {
	return t0.Add(time.Duration(c.hour.Load()) * time.Hour)
}

// wallClock is a settable token-bucket clock for schedd.WithGateClock.
type wallClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *wallClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// mkWorld builds an nRegions-region trace world with staggered diurnal
// cycles and distinct baselines (the same shape as the sched package's
// sharding tests), so spatial policies genuinely migrate between
// regions inside a partition.
func mkWorld(t testing.TB, hours, nRegions, slots int) (*trace.Set, []sched.Cluster, []string) {
	t.Helper()
	var traces []*trace.Trace
	var cl []sched.Cluster
	var origins []string
	for r := 0; r < nRegions; r++ {
		ci := make([]float64, hours)
		base := 50 + 90*float64(r)
		for h := 0; h < hours; h++ {
			ci[h] = base + 200*(1+math.Sin(2*math.Pi*float64(h+3*r)/24))
		}
		code := fmt.Sprintf("R%02d", r)
		traces = append(traces, trace.New(code, t0, ci))
		cl = append(cl, sched.Cluster{Region: code, Slots: slots})
		origins = append(origins, code)
	}
	set, err := trace.NewSet(traces)
	if err != nil {
		t.Fatal(err)
	}
	return set, cl, origins
}

// groupSplit slices the regions into n modulo round-robin groups.
func groupSplit(origins []string, n int) [][]string {
	groups := make([][]string, n)
	for i, r := range origins {
		groups[i%n] = append(groups[i%n], r)
	}
	return groups
}

// subWorld restricts a world to one region group.
func subWorld(t testing.TB, set *trace.Set, cl []sched.Cluster, group []string) (*trace.Set, []sched.Cluster) {
	t.Helper()
	sub, err := set.Subset(group)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{}
	for _, r := range group {
		in[r] = true
	}
	var subcl []sched.Cluster
	for _, c := range cl {
		if in[c.Region] {
			subcl = append(subcl, c)
		}
	}
	return sub, subcl
}

// startGateway builds a gateway over the given partition URL sets and
// serves it from an httptest server.
func startGateway(t testing.TB, partitions [][]string) (*Gateway, *httptest.Server) {
	t.Helper()
	gw, err := New(Config{Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

// wantStatus requires err to carry the HTTP status code and message
// fragment — the same typed-client contract the schedd tests pin, now
// through the gateway.
func wantStatus(t *testing.T, label string, err error, code int, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error, want status %d", label, code)
	}
	if got := httpx.StatusCodeOf(err); got != code {
		t.Fatalf("%s: status %d (%v), want %d", label, got, err, code)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("%s: error %q does not mention %q", label, err, substr)
	}
}
