// Package golden is the repository's one golden-file harness. A test
// hands it the bytes it produced and the name of a file under its
// package's testdata/: Check compares them, or records them under
// -update; Frozen only compares, for the compatibility fixtures an
// older build wrote, which no later build may re-record.
//
//	go test ./internal/<pkg> -run Golden -update
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/ (never the frozen ones)")

// Check compares got with testdata/name, or records got there under
// -update. A deliberate change of the pinned bytes is re-recorded with
// -update and reviewed as a diff of the file.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compare(t, path, got, "regenerate with -update if the change is deliberate")
}

// Frozen compares got with testdata/name and never rewrites the file,
// -update or not: the fixture is bytes an older build wrote, and the
// current code must keep reproducing them.
func Frozen(t testing.TB, name string, got []byte) {
	t.Helper()
	compare(t, filepath.Join("testdata", name), got, "a frozen fixture: -update does not rewrite it")
}

func compare(t testing.TB, path string, got []byte, hint string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted (%s):\n%s", path, hint, diff(string(want), string(got)))
	}
}

// diff lists the lines that differ between want and got, past their
// common first and last lines, so a digest list names the entry that
// moved.
func diff(want, got string) string {
	w, g := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	head := 0
	for head < min(len(w), len(g)) && w[head] == g[head] {
		head++
	}
	for len(w) > head && len(g) > head && w[len(w)-1] == g[len(g)-1] {
		w, g = w[:len(w)-1], g[:len(g)-1]
	}
	var b strings.Builder
	for i := head; i < max(len(w), len(g)); i++ {
		if i < len(w) {
			fmt.Fprintf(&b, "line %d want %q\n", i+1, w[i])
		}
		if i < len(g) {
			fmt.Fprintf(&b, "line %d got  %q\n", i+1, g[i])
		}
	}
	return b.String()
}
