package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

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
	got := map[string]string{}
	var order []string
	for _, e := range Experiments() {
		tbl, err := e.Run(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[e.ID] = hex.EncodeToString(sum[:])
		order = append(order, e.ID)
	}

	path := filepath.Join("testdata", "experiment_tables.golden")
	if *update {
		var sb strings.Builder
		for _, id := range order {
			fmt.Fprintf(&sb, "%s %s\n", id, got[id])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(order) {
		t.Fatalf("golden has %d entries, %d experiments are registered", len(lines), len(order))
	}
	for _, line := range lines {
		id, want, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		if got[id] != want {
			t.Errorf("%s: table changed: got %s, golden %s", id, got[id], want)
		}
	}
}
