package main

import (
	"strings"
	"testing"
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
