package archtest

import (
	"fmt"
	"go/ast"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The size ceilings of the two record documents, in bytes, and of one
// CHANGES entry (a top-level "- **PR" item).
const (
	designMax  = 45 * 1024
	changesMax = 60 * 1024
	entryMax   = 2 * 1024
)

// lineRefsAllowed is the one document that may cite code by line: its
// open items point into files a later change edits. The others cite by
// function or test name, which this test can check.
const lineRefsAllowed = "ROADMAP.md"

// docSet is what the document checks read: each document's text by
// path, the test functions the module declares, every Go file's line
// count, and the package directories under internal/ and cmd/.
type docSet struct {
	docs  map[string]string // path → text
	funcs []string          // top-level functions of _test.go files
	lines map[string]int    // .go path → line count
	dirs  []string          // internal/x and cmd/x
}

var (
	// runFlag matches a go test -run pattern, quoted or bare.
	runFlag = regexp.MustCompile(`(?:^|\s)-run[ =]+(?:'([^']*)'|"([^"]*)"|([^\s'"` + "`" + `]+))`)
	// citation matches a cited test, fuzz target or benchmark; * is a
	// glob, and a /subtest is left off.
	citation = regexp.MustCompile(`(?:^|[^A-Za-z0-9_])((?:Test|Fuzz|Benchmark)[A-Z0-9_*][A-Za-z0-9_*]*)`)
	// lineRef matches path.go:N or path.go:N-M.
	lineRef = regexp.MustCompile(`([A-Za-z0-9_./-]*[A-Za-z0-9_]\.go):(\d+)(?:-(\d+))?`)
	// pkgDir matches a directory under internal/, cmd/ or examples/.
	pkgDir = regexp.MustCompile(`\b(?:internal|cmd|examples)/[a-z0-9_]+`)
	// entryHead matches the first line of a CHANGES entry.
	entryHead = regexp.MustCompile(`^- \*\*PR (\d+)`)
)

// references checks every document's -run patterns, cited test names
// and line references.
func (s docSet) references() []string {
	var out []string
	for _, doc := range slices.Sorted(maps.Keys(s.docs)) {
		text := s.docs[doc]
		// Each alternative of a -run pattern is a prefix of some
		// function; the pattern is then blanked so its prefixes are not
		// read as whole names below.
		text = runFlag.ReplaceAllStringFunc(text, func(flag string) string {
			m := runFlag.FindStringSubmatch(flag)
			for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
				alt, _, _ = strings.Cut(strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$"), "/")
				if alt != "" && !slices.ContainsFunc(s.funcs, func(f string) bool { return strings.HasPrefix(f, alt) }) {
					out = append(out, fmt.Sprintf("%s: -run alternative %q is the prefix of no test function", doc, alt))
				}
			}
			return strings.Repeat(" ", len(flag))
		})
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			// A citation holds only letters, digits, _ and *, so its only
			// pattern syntax is the * glob and Match cannot fail.
			if !slices.ContainsFunc(s.funcs, func(f string) bool { ok, _ := path.Match(m[1], f); return ok }) {
				out = append(out, fmt.Sprintf("%s: %s names no test function", doc, m[1]))
			}
		}
		for _, m := range lineRef.FindAllStringSubmatch(text, -1) {
			if doc != lineRefsAllowed {
				out = append(out, fmt.Sprintf("%s: %s cites a line; cite the function or test by name", doc, m[0]))
				continue
			}
			out = append(out, s.resolveLine(doc, m)...)
		}
	}
	return out
}

// resolveLine checks that the path of a line reference names exactly
// one Go file and that the file reaches the cited line.
func (s docSet) resolveLine(doc string, m []string) []string {
	var hits []string
	for p := range s.lines {
		if p == m[1] || strings.HasSuffix(p, "/"+m[1]) {
			hits = append(hits, p)
		}
	}
	if len(hits) != 1 {
		slices.Sort(hits)
		return []string{fmt.Sprintf("%s: %s resolves to %d files %q, want 1", doc, m[0], len(hits), hits)}
	}
	last, _ := strconv.Atoi(m[2]) // lineRef admits only digits here
	if m[3] != "" {
		last, _ = strconv.Atoi(m[3])
	}
	if n := s.lines[hits[0]]; n < last {
		return []string{fmt.Sprintf("%s: %s is past the end of %s (%d lines)", doc, m[0], hits[0], n)}
	}
	return nil
}

// inventory checks that DESIGN.md's "System inventory" lists every
// directory under internal/, cmd/ and examples/, and no other.
func (s docSet) inventory() []string {
	_, section, ok := strings.Cut(s.docs["DESIGN.md"], "\n## System inventory\n")
	if !ok {
		return []string{`DESIGN.md: no "## System inventory" section`}
	}
	section, _, _ = strings.Cut(section, "\n## ")
	listed := pkgDir.FindAllString(section, -1)
	var out []string
	for _, d := range s.dirs {
		if !slices.Contains(listed, d) {
			out = append(out, fmt.Sprintf("DESIGN.md: the system inventory does not list %s", d))
		}
	}
	for _, d := range listed {
		if !slices.Contains(s.dirs, d) {
			out = append(out, fmt.Sprintf("DESIGN.md: the system inventory lists %s, which does not exist", d))
		}
	}
	return out
}

// sizes checks the record documents against their ceilings: DESIGN.md
// and CHANGES.md as wholes, and each CHANGES entry.
func sizes(design, changes string) []string {
	var out []string
	if len(design) > designMax {
		out = append(out, fmt.Sprintf("DESIGN.md is %d B, over %d B: describe the current design, not its history", len(design), designMax))
	}
	if len(changes) > changesMax {
		out = append(out, fmt.Sprintf("CHANGES.md is %d B, over %d B", len(changes), changesMax))
	}
	pr, size := "", 0
	flush := func() {
		if pr != "" && size > entryMax {
			out = append(out, fmt.Sprintf("CHANGES.md: the entry of PR %s is %d B, over %d B: keep one paragraph, move tables and runs to the commit message", pr, size, entryMax))
		}
	}
	for _, line := range strings.SplitAfter(changes, "\n") {
		if m := entryHead.FindStringSubmatch(line); m != nil {
			flush()
			pr, size = m[1], 0
		}
		size += len(line)
	}
	flush()
	return out
}

// check runs every document check, with changes as CHANGES.md's text.
func (s docSet) check(changes string) []string {
	return slices.Concat(s.references(), s.inventory(), sizes(s.docs["DESIGN.md"], changes))
}

// loadDocs reads the checked documents and the module's test functions,
// Go files and package directories.
func loadDocs(t *testing.T) (docSet, string) {
	t.Helper()
	s := docSet{docs: map[string]string{}, lines: map[string]int{}}
	docs, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		docs[i] = filepath.Join("docs", filepath.Base(d))
	}
	read := func(path string) string {
		b, err := os.ReadFile(filepath.Join(repoRoot, path))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, path := range append([]string{"DESIGN.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}, docs...) {
		s.docs[filepath.ToSlash(path)] = read(path)
	}
	for _, f := range parseTree(t, repoRoot) {
		if !f.test() {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				s.funcs = append(s.funcs, fd.Name.Name)
			}
		}
	}
	err = filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if path != repoRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if dir, _ := filepath.Split(rel); dir == "internal/" || dir == "cmd/" || dir == "examples/" {
				s.dirs = append(s.dirs, rel)
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") {
			s.lines[rel] = strings.Count(read(rel), "\n")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, read("CHANGES.md")
}

// TestDocReferences keeps the documents a reader starts from true to the
// code: every test, fuzz target or benchmark they cite exists, every -run
// pattern selects something, every line reference (ROADMAP.md only)
// lands inside its file, DESIGN.md's inventory lists every package and
// example, and DESIGN.md and CHANGES.md stay within their sizes.
func TestDocReferences(t *testing.T) {
	s, changes := loadDocs(t)
	for _, v := range s.check(changes) {
		t.Error(v)
	}
}

// TestDocReferencesFireOnPlants breaks each check once — a renamed test,
// a line past the end of its file, a line reference outside ROADMAP.md, a
// -run alternative that selects nothing, a package or an example
// dropped from the inventory, an oversized CHANGES entry — and requires
// it to be reported.
func TestDocReferencesFireOnPlants(t *testing.T) {
	s, changes := loadDocs(t)
	plants := []struct {
		name string
		want string
		edit func(s *docSet, changes *string)
	}{
		{"renamed test", "TestTraceBitsGolden names no test function", func(s *docSet, _ *string) {
			s.funcs = slices.DeleteFunc(slices.Clone(s.funcs), func(f string) bool { return f == "TestTraceBitsGolden" })
		}},
		{"line past EOF", "fleet.go:999999 is past the end", func(s *docSet, _ *string) {
			s.docs["ROADMAP.md"] += "\n`internal/sched/fleet.go:999999`\n"
		}},
		{"line reference outside ROADMAP", "docs/RUNBOOK.md: fleet.go:1 cites a line", func(s *docSet, _ *string) {
			s.docs["docs/RUNBOOK.md"] += "\n`fleet.go:1`\n"
		}},
		{"-run alternative that selects nothing", `-run alternative "TestNoSuchPlant"`, func(s *docSet, _ *string) {
			s.docs[".claude/skills/verify/SKILL.md"] += "\n    go test ./internal/sched -run 'TestPlacementGolden|TestNoSuchPlant'\n"
		}},
		{"package dropped from the inventory", "does not list internal/tenant", func(s *docSet, _ *string) {
			head, rest, _ := strings.Cut(s.docs["DESIGN.md"], "\n## System inventory\n")
			section, tail, _ := strings.Cut(rest, "\n## ")
			section = strings.ReplaceAll(section, "internal/tenant", "")
			s.docs["DESIGN.md"] = head + "\n## System inventory\n" + section + "\n## " + tail
		}},
		{"example dropped from the inventory", "does not list examples/tenants", func(s *docSet, _ *string) {
			head, rest, _ := strings.Cut(s.docs["DESIGN.md"], "\n## System inventory\n")
			section, tail, _ := strings.Cut(rest, "\n## ")
			section = strings.ReplaceAll(section, "examples/tenants", "")
			s.docs["DESIGN.md"] = head + "\n## System inventory\n" + section + "\n## " + tail
		}},
		{"2.1 KB entry", "the entry of PR 99 is", func(_ *docSet, changes *string) {
			*changes += "- **PR 99 [plant]: one entry too long.** " + strings.Repeat("x", 2100) + "\n"
		}},
	}
	for _, p := range plants {
		t.Run(p.name, func(t *testing.T) {
			planted := s
			planted.docs = maps.Clone(s.docs)
			c := changes
			p.edit(&planted, &c)
			got := planted.check(c)
			if !slices.ContainsFunc(got, func(v string) bool { return strings.Contains(v, p.want) }) {
				t.Errorf("the plant went unreported: want %q in %q", p.want, got)
			}
		})
	}
}
