package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"carbonshift/internal/golden"
)

// TestExperimentTablesGolden pins every registered experiment's table on
// the mini lab: the SHA-256 of its CSV, whose values are printed at full
// float precision, so a change to one bit of one cell changes the digest.
// TestWorkersDeterminism compares two runs of the same code and
// bench/golden.json pins the full lab at one seed and size; this is the
// package's own record of what the tables were. It was recorded on amd64
// ahead of the simgrid shared-logarithm kernel and the selection-based
// stats.BottomKIndices — never -update it for a refactor. The studies'
// digests go to their own file, so adding a study leaves the
// experiments' record untouched.
func TestExperimentTablesGolden(t *testing.T) {
	l := mini(t)
	golden.Check(t, "experiment_tables.golden", tableDigests(t, l, Experiments()))
	golden.Check(t, "study_tables.golden", tableDigests(t, l, Studies()))
}

// tableDigests runs each experiment on l and lists its ID with the
// SHA-256 of its CSV, one line each.
func tableDigests(t *testing.T, l *Lab, exps []Experiment) []byte {
	var got bytes.Buffer
	for _, e := range exps {
		tbl, err := e.Run(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&got, "%s %x\n", e.ID, sha256.Sum256(buf.Bytes()))
	}
	return got.Bytes()
}
