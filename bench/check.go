package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"carbonshift/internal/core"
	"carbonshift/internal/sched"
)

// check is one correctness assertion of a run. A failed check is a
// failed operation: the command exits non-zero and reports
// correct=false.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newCheck(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

func (r *onlineResult) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, newCheck(name, ok, format, args...))
}

// hashResult feeds a sched.Result to h in a canonical binary form:
// every field that describes what the scheduler decided, outcome by
// outcome in input order.
func hashResult(h hash.Hash, res sched.Result) {
	buf := make([]byte, 0, 1<<16)
	u := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	f := func(v float64) { buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	str := func(s string) { u(len(s)); buf = append(buf, s...) }
	str(res.Policy)
	u(res.Completed)
	u(res.Missed)
	f(res.TotalEmissions)
	f(res.MeanWaitHours)
	f(res.SlotHoursUsed)
	f(res.SlotHoursTotal)
	u(len(res.Outcomes))
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		u(o.ID)
		str(o.Origin)
		str(o.Tenant)
		u(o.Arrival)
		u(o.Length)
		u(o.Slack)
		b(o.Interruptible)
		b(o.Migratable)
		b(o.Completed)
		u(o.CompletedAt)
		b(o.MissedDeadline)
		f(o.Emissions)
		u(o.WaitHours)
		u(o.Migrations)
		if len(buf) > 1<<16-256 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
}

func digestResult(res sched.Result) string {
	h := sha256.New()
	hashResult(h, res)
	return hex.EncodeToString(h.Sum(nil))
}

// finalChecks closes the online part's books after the drain:
// conservation through the gateway, every acked id resolved exactly
// once across the partitions, and each standby equal to its primary.
func (s *onlineSetup) finalChecks(ctx context.Context, c *benchClient, res *onlineResult) error {
	final, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("final stats: %w", err)
	}
	res.final = final
	res.check("acked = gateway submitted", final.Submitted == len(s.jobs), "submitted %d, acked %d", final.Submitted, len(s.jobs))
	res.check("submitted = completed + unresolved", final.Submitted == final.Completed+final.Unresolved,
		"submitted %d, completed %d, unresolved %d", final.Submitted, final.Completed, final.Unresolved)
	res.check("unresolved = 0 after the drain", final.Unresolved == 0, "unresolved %d", final.Unresolved)

	if _, err := s.rig.waitStandbys(ctx); err != nil {
		return err
	}
	seen := make([]bool, len(s.jobs))
	resolved, stray := 0, 0
	for g, n := range s.rig.nodes {
		live := n.primary.Snapshot()
		for i := range live.Outcomes {
			j := s.jobOf(live.Outcomes[i].ID)
			if j == nil || j.ID/idBase != g {
				stray++
				continue
			}
			pos := s.index[g][j.ID%idBase]
			if seen[pos] {
				stray++
			}
			seen[pos] = true
			resolved++
		}
		want, got := digestResult(live), digestResult(n.standby.Snapshot())
		res.check(fmt.Sprintf("standby %d equals its primary after catch-up", g), want == got,
			"standby digest %s, primary %s", got[:12], want[:12])
	}
	res.check("every acked id resolved exactly once", resolved == len(s.jobs) && stray == 0,
		"%d of %d ids resolved, %d stray or duplicate", resolved, len(s.jobs), stray)
	return nil
}

// checkPlacements compares each partition's placement log with its
// reference fleet's, record for record.
func checkPlacements(nodes []*node, ref [][]placeRec) []check {
	var out []check
	for g, n := range nodes {
		ok := reflect.DeepEqual(n.placements, ref[g])
		out = append(out, newCheck(fmt.Sprintf("partition %d placements equal the reference fleet", g), ok,
			"%d records vs reference %d", len(n.placements), len(ref[g])))
	}
	return out
}

// --- the offline part's golden digest ---

// offlineDigest is what the offline part produced, reduced to what a
// behaviour change would move: a SHA-256 over every experiment table's
// CSV and the two oracle Results, and the oracle's carbon saving.
type offlineDigest struct {
	Digest string  `json:"digest"`
	Saving float64 `json:"saving"`
}

func digestOffline(tables []*core.Table, fifo, st sched.Result) (offlineDigest, error) {
	h := sha256.New()
	for _, t := range tables {
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			return offlineDigest{}, err
		}
		h.Write(buf.Bytes())
	}
	hashResult(h, fifo)
	hashResult(h, st)
	return offlineDigest{
		Digest: hex.EncodeToString(h.Sum(nil)),
		Saving: 1 - st.TotalEmissions/fifo.TotalEmissions,
	}, nil
}

// goldenFile is bench/golden.json: offline_paper's committed digests,
// keyed by workload, seed, size and run kind. Runs at other seeds or
// sizes have no entry and skip the comparison.
const goldenFile = "golden.json"

//go:embed golden.json
var goldenJSON []byte

func goldenKey(workload string, o options) string {
	key := fmt.Sprintf("%s/seed=%d/seconds=%g/trace=%d", workload, o.seed, o.seconds, o.trace)
	if o.labRegions > 0 {
		key += fmt.Sprintf("/lab=%d", o.labRegions)
	}
	return key
}

// goldenPath is where -update-golden writes: next to this source file,
// wherever the command or the test was started from.
func goldenPath() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), goldenFile)
}

// loadGolden parses the committed digests: the copy embedded at build
// time for checking, the file on disk when updating (a binary built
// before the previous update would otherwise write its stale copy back).
func loadGolden(fromDisk bool) (map[string]offlineDigest, error) {
	data := goldenJSON
	if fromDisk {
		var err error
		if data, err = os.ReadFile(goldenPath()); err != nil {
			return nil, err
		}
	}
	out := map[string]offlineDigest{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return out, nil
}

func saveGolden(g map[string]offlineDigest) error {
	data, err := json.MarshalIndent(g, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(), append(data, '\n'), 0o644)
}
