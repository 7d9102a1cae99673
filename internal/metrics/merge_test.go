package metrics

import (
	"strings"
	"testing"
)

// TestMergerUnit pins the exposition merger's aggregation rules
// directly: sum by default, max for the clock-like families, comments
// deduplicated, first-seen order preserved — and values rendered the
// way the registry renders them (a summed 2^21 is an integer, not
// 2.097152e+06) — and Set overwriting a merged series the caller
// derives instead.
func TestMergerUnit(t *testing.T) {
	m := NewMerger(map[string]bool{"schedd_fleet_hour": true})
	m.Absorb([]byte(`# HELP schedd_jobs_submitted_total Jobs.
# TYPE schedd_jobs_submitted_total counter
schedd_jobs_submitted_total 3
schedd_fleet_hour 7
schedd_backpressure_total{reason="queue_full"} 2
schedd_job_limit 1048576
`))
	m.Absorb([]byte(`# HELP schedd_jobs_submitted_total Jobs.
# TYPE schedd_jobs_submitted_total counter
schedd_jobs_submitted_total 4
schedd_fleet_hour 5
schedd_backpressure_total{reason="queue_full"} 1
schedd_backpressure_total{reason="job_limit"} 9
schedd_job_limit 1048576
schedd_utilization_ratio 0.25
`))
	m.Set("schedd_utilization_ratio", 0.3)
	m.Set("schedd_miss_rate", 0.5) // carried by neither: stays absent
	var b strings.Builder
	m.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		"schedd_jobs_submitted_total 7\n",
		"schedd_fleet_hour 7\n",
		`schedd_backpressure_total{reason="queue_full"} 3` + "\n",
		`schedd_backpressure_total{reason="job_limit"} 9` + "\n",
		"schedd_job_limit 2097152\n",
		"schedd_utilization_ratio 0.3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "schedd_miss_rate") {
		t.Fatalf("Set added a series no exposition carried:\n%s", out)
	}
	if n := strings.Count(out, "# TYPE schedd_jobs_submitted_total"); n != 1 {
		t.Fatalf("TYPE line appears %d times, want 1", n)
	}
}
