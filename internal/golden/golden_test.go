package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fatalRecorder is a testing.TB whose Fatal and Fatalf record the
// message and end the calling goroutine, as the real ones do.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Fatal(args ...any) { r.msg = fmt.Sprint(args...); runtime.Goexit() }
func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// run calls check on a recorder in its own goroutine and returns the
// failure message, "" if check passed.
func run(t *testing.T, check func(testing.TB, string, []byte), name string, got []byte) string {
	r := &fatalRecorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		check(r, name, got)
	}()
	<-done
	return r.msg
}

// TestFrozenIgnoresUpdate: with -update on, Frozen still reports a
// mismatch, naming the line that moved, and leaves the fixture
// byte-identical; Check, given the same bytes, records them.
func TestFrozenIgnoresUpdate(t *testing.T) {
	t.Chdir(t.TempDir())
	fixture := []byte("region/A 11\nregion/B 22\nregion/C 33\n")
	moved := []byte("region/A 11\nregion/B 99\nregion/C 33\n")
	if err := os.Mkdir("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"frozen.golden", "checked.golden"} {
		if err := os.WriteFile(filepath.Join("testdata", name), fixture, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := flag.Set("update", "true"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("update", "false") })

	msg := run(t, Frozen, "frozen.golden", moved)
	if !strings.Contains(msg, `line 2 want "region/B 22\n"`) || !strings.Contains(msg, `line 2 got  "region/B 99\n"`) ||
		strings.Contains(msg, "region/A") || strings.Contains(msg, "region/C") {
		t.Fatalf("Frozen under -update reported %q, want the mismatch of line 2 alone", msg)
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "frozen.golden")); err != nil || string(raw) != string(fixture) {
		t.Fatalf("Frozen under -update rewrote its fixture: %q, %v", raw, err)
	}

	if msg := run(t, Check, "checked.golden", moved); msg != "" {
		t.Fatalf("Check under -update failed: %s", msg)
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "checked.golden")); err != nil || string(raw) != string(moved) {
		t.Fatalf("Check under -update did not record: %q, %v", raw, err)
	}
}
