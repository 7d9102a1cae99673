package gateway

// GET /v1/stats on the gateway is the fleet-wide view: every
// partition's stats scattered concurrently and gathered into one
// schedd.StatsResponse-shaped merge, plus a gateway block saying which
// partitions the merge actually covers. The scatter doubles as a
// topology refresh — every echo is re-absorbed into the routing
// table.

import (
	"errors"
	"net/http"
	"sort"

	"carbonshift/internal/httpx"
	"carbonshift/internal/schedd"
)

var errNoPartition = errors.New("gateway: no partition reachable")

// GatewayBlock annotates the merged stats with the scatter's coverage.
type GatewayBlock struct {
	Partitions int   `json:"partitions"`
	Reached    []int `json:"reached"`
	Missing    []int `json:"missing,omitempty"`
}

// StatsResponse is the gateway's GET /v1/stats payload: the merged
// fleet-wide view in the partitions' own shape, plus coverage.
type StatsResponse struct {
	schedd.StatsResponse
	Gateway GatewayBlock `json:"gateway"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := make([]*schedd.StatsResponse, len(g.parts))
	scatter(g.parts, func(p *partition) { stats[p.index] = g.fetchStats(r.Context(), p) })

	out := StatsResponse{Gateway: GatewayBlock{Partitions: len(g.parts)}}
	for i, st := range stats {
		if st == nil {
			out.Gateway.Missing = append(out.Gateway.Missing, i)
			continue
		}
		out.Gateway.Reached = append(out.Gateway.Reached, i)
		mergeStats(&out.StatsResponse, st)
	}
	if len(out.Gateway.Reached) == 0 {
		g.writeUnreachable(w, errNoPartition)
		return
	}
	if len(out.Gateway.Missing) > 0 {
		g.mx.statsPartial.Inc()
	}
	finishStats(&out.StatsResponse)
	httpx.WriteJSON(w, http.StatusOK, out)
}

// mergeStats folds one partition's stats into the fleet view. Counters
// and capacities sum; the fleet clock takes the max (partitions step
// independently, the furthest-along hour bounds them all); identity
// fields (policy and its gate, horizon, seed, tenant config) come from
// the first reached partition — partitions of one fleet run the same
// policy.
func mergeStats(dst, src *schedd.StatsResponse) {
	if dst.Policy == "" {
		dst.Policy = src.Policy
		dst.Gate = src.Gate
		dst.Horizon = src.Horizon
		dst.Seed = src.Seed
	}
	if src.Hour > dst.Hour {
		dst.Hour = src.Hour
	}
	dst.Clusters = append(dst.Clusters, src.Clusters...)
	dst.Submitted += src.Submitted
	dst.Completed += src.Completed
	dst.Missed += src.Missed
	dst.Running += src.Running
	dst.QueueDepth += src.QueueDepth
	dst.Unresolved += src.Unresolved
	dst.TotalEmissionsG += src.TotalEmissionsG
	// Utilization is slot-weighted: accumulate slots×utilization here
	// and divide by total slots in finishStats.
	dst.Utilization += src.Utilization * float64(slotsOf(src))
	for _, t := range src.Tenants {
		mergeTenant(dst, t)
	}
	if dst.TenantConfig == nil {
		dst.TenantConfig = src.TenantConfig
	}
	if src.Replication != nil {
		if dst.Replication == nil || src.Replication.LagHours > dst.Replication.LagHours {
			rep := *src.Replication
			dst.Replication = &rep
		}
	}
}

func slotsOf(st *schedd.StatsResponse) int {
	n := 0
	for _, c := range st.Clusters {
		n += c.Slots
	}
	return n
}

// mergeTenant folds one tenant row in by name, summing the accounting
// fields; class and weight are configuration and identical across
// partitions, so the first row's values stand.
func mergeTenant(dst *schedd.StatsResponse, t schedd.TenantStatsEntry) {
	for i := range dst.Tenants {
		if dst.Tenants[i].Name == t.Name {
			dst.Tenants[i].Add(t.TenantStat)
			return
		}
	}
	dst.Tenants = append(dst.Tenants, t)
}

// finishStats computes the derived ratios once every partition is
// folded in.
func finishStats(st *schedd.StatsResponse) {
	if slots := slotsOf(st); slots > 0 {
		st.Utilization /= float64(slots)
	} else {
		st.Utilization = 0
	}
	// missed / submitted, as each partition computes its own.
	if st.Submitted > 0 {
		st.MissRate = float64(st.Missed) / float64(st.Submitted)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
}
