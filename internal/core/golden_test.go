package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
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
// stats.BottomKIndices — never -update it for a refactor.
func TestExperimentTablesGolden(t *testing.T) {
	l := mini(t)
	var got strings.Builder
	for _, e := range Experiments() {
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

	golden.Check(t, "experiment_tables.golden", []byte(got.String()))
}
