package main

import (
	"strings"
	"testing"

	"carbonshift/internal/core"
	"carbonshift/internal/simgrid"
)

// TestConflict checks that each pair of flags where one would ignore the
// other is refused with both names, and that compatible sets pass.
func TestConflict(t *testing.T) {
	for _, tc := range []struct {
		flags string // space-separated names of the set flags
		want  string // "" when the set is accepted
	}{
		{"report", ""},
		{"report seed span workers v", ""},
		{"all format out", ""},
		{"exp format out seed", ""},
		{"report out", "-report ignores -out"},
		{"report format", "-report ignores -format"},
		{"report exp", "-report ignores -exp"},
		{"report all", "-report ignores -all"},
		{"all exp", "-all ignores -exp"},
		{"list exp", "-list ignores -exp"},
		{"list all", "-list ignores -all"},
		{"list report", "-list ignores -report"},
		{"list exp format", "-list ignores -exp"},
		{"list format", "-list ignores -format"},
		{"list out", "-list ignores -out"},
		{"list seed", "-list ignores -seed"},
		{"list span", "-list ignores -span"},
		{"list stride", "-list ignores -stride"},
		{"list workers", "-list ignores -workers"},
		{"list v", "-list ignores -v"},
	} {
		set := map[string]bool{}
		for _, f := range strings.Fields(tc.flags) {
			set[f] = true
		}
		err := conflict(set)
		if got := ""; err != nil {
			got = err.Error()
			if tc.want == "" || !strings.Contains(got, tc.want) {
				t.Errorf("%s: conflict = %q, want %q", tc.flags, got, tc.want)
			}
		} else if tc.want != "" {
			t.Errorf("%s: accepted, want %q", tc.flags, tc.want)
		}
	}
}

// TestDropped checks that a lab flag an entry's world drops is refused
// with the flag and the entry, and that flags the world keeps pass.
func TestDropped(t *testing.T) {
	asked := core.Options{Sim: simgrid.Config{Seed: 7}, ArrivalSpan: 100, Stride: 5, Workers: 8}
	for _, tc := range []struct {
		exp   string
		flags string // space-separated names of the set flags
		want  string // "" when the set is accepted
	}{
		{"policies", "", ""},
		{"policies", "seed workers format v", ""},
		{"policies", "span", "-exp policies ignores -span"},
		{"policies", "stride", "-exp policies ignores -stride"},
		{"policies", "seed span stride", "-exp policies ignores -span"},
		{"fig7", "seed span stride workers", ""},
		{"ext-contention", "span stride", ""},
	} {
		e, err := core.ExperimentByID(tc.exp)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, f := range strings.Fields(tc.flags) {
			set[f] = true
		}
		err = dropped(set, e.ID, asked, e.Options(asked))
		if got := ""; err != nil {
			got = err.Error()
			if tc.want == "" || !strings.Contains(got, tc.want) {
				t.Errorf("%s %s: dropped = %q, want %q", tc.exp, tc.flags, got, tc.want)
			}
		} else if tc.want != "" {
			t.Errorf("%s %s: accepted, want %q", tc.exp, tc.flags, tc.want)
		}
	}
}
