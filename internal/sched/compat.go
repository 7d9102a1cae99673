package sched

import "carbonshift/internal/trace"

// ShardedFleet is Fleet under its old name, with the old three-argument
// placement hook, for callers not yet moved onto Fleet and OnPlace(Placed).
//
// Deprecated: use Fleet. No production code uses it; it goes away
// together with schedd.Config.Shards.
type ShardedFleet struct {
	*Fleet

	// OnPlace, when non-nil, observes every executed job-hour as (hour,
	// job id, region name), in the order Fleet.OnPlace sees them.
	OnPlace func(hour, jobID int, region string)
}

// NewShardedFleet is NewFleet; the final argument is ignored.
//
// Deprecated: use NewFleet.
func NewShardedFleet(set *trace.Set, clusters []Cluster, policy Policy, horizon, _ int) (*ShardedFleet, error) {
	f, err := NewFleet(set, clusters, policy, horizon)
	if err != nil {
		return nil, err
	}
	sf := &ShardedFleet{Fleet: f}
	f.OnPlace = func(p Placed) {
		if sf.OnPlace != nil {
			sf.OnPlace(p.Hour, p.JobID, f.regionsList[p.Region])
		}
	}
	return sf, nil
}
