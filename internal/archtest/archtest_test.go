// Package archtest holds the repository's architecture guards: each
// keeps one piece of the design single — one framing layer, one
// lifecycle, one upstream round trip, one id registry, index-typed
// policies, one serially stepped job list, one fleet type and placement
// hook, the measured kernels, one logger, one role value, one
// performance harness, one fault driver, one golden harness — by
// counting, over the parsed Go source, the sites that would start a
// second copy. They run under go test ./..., and every guard is shown to
// fire on a planted violation.
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// repoRoot is the module root, seen from this package's directory.
const repoRoot = "../.."

// file is one parsed Go file; path is slash-separated and relative to
// the repository root.
type file struct {
	path string
	ast  *ast.File
	fset *token.FileSet
}

func (f file) test() bool { return strings.HasSuffix(f.path, "_test.go") }

// rule bounds how many nodes matching match the files in scope hold.
type rule struct {
	what     string          // the pattern, as a violation names it
	in       []string        // path prefixes in scope ("" is the whole tree)
	not      []string        // path prefixes out of scope
	tests    bool            // _test.go files are in scope too
	only     func(file) bool // when set, narrows the scope to the files it accepts
	min, max int
	match    func(ast.Node) bool
}

// guard is one architecture invariant: its rules, the remedy a
// violation prints, and a planted violation (path → source) it must
// catch.
type guard struct {
	name  string
	fix   string
	rules []rule
	plant map[string]string
}

func (r rule) covers(f file) bool {
	inScope := func(prefixes []string) bool {
		return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(f.path, p) })
	}
	return (r.tests || !f.test()) && inScope(r.in) && !inScope(r.not) && (r.only == nil || r.only(f))
}

// sites lists path:line for every node of the in-scope files r matches.
func (r rule) sites(files []file) []string {
	var out []string
	for _, f := range files {
		if !r.covers(f) {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil && r.match(n) {
				out = append(out, fmt.Sprintf("%s:%d", f.path, f.fset.Position(n.Pos()).Line))
			}
			return true
		})
	}
	return out
}

// violations checks every rule of g over files.
func (g guard) violations(files []file) []string {
	var out []string
	for _, r := range g.rules {
		if s := r.sites(files); len(s) < r.min || len(s) > r.max {
			out = append(out, fmt.Sprintf("%s: %d sites, want %d..%d: %s",
				r.what, len(s), r.min, r.max, strings.Join(s, ", ")))
		}
	}
	return out
}

// --- matchers ---

// rootTest accepts a _test.go file at the module root, in no directory.
func rootTest(f file) bool { return f.test() && !strings.Contains(f.path, "/") }

// wholeFile matches each file once.
func wholeFile(n ast.Node) bool {
	_, ok := n.(*ast.File)
	return ok
}

// lastName is the final identifier of x: p for p, up for p.up, failed
// for s.failed.
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// ref matches x.name for any of names, used or called: sync.WaitGroup,
// sort.Slice.
func ref(x string, names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		return ok && lastName(sel.X) == x && slices.Contains(names, sel.Sel.Name)
	}
}

// call matches a call of x.name for any of names, where x is the last
// identifier of the receiver: wal.OpenStore(, s.failed.Store(,
// p.up.Set(.
func call(x string, names ...string) func(ast.Node) bool {
	isRef := ref(x, names...)
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && isRef(c.Fun)
	}
}

// callNamed matches a call of name, bare or qualified: NewFollower(,
// schedd.NewFollower(.
func callNamed(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && lastName(c.Fun) == name
	}
}

func imports(path string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		spec, ok := n.(*ast.ImportSpec)
		return ok && spec.Path.Value == `"`+path+`"`
	}
}

// caseOf matches a switch case listing the constant name.
func caseOf(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		return ok && slices.ContainsFunc(cc.List, func(e ast.Expr) bool { return lastName(e) == name })
	}
}

// doReq matches .Do(req): a hand-built request sent by hand.
func doReq(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok || len(c.Args) != 1 || lastName(c.Args[0]) != "req" {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Do"
}

// idKeyedMap matches map[int]uint32 and map[int]bool.
func idKeyedMap(n ast.Node) bool {
	m, ok := n.(*ast.MapType)
	return ok && lastName(m.Key) == "int" && slices.Contains([]string{"uint32", "bool"}, lastName(m.Value))
}

// stringKeyedMap matches map[string]….
func stringKeyedMap(n ast.Node) bool {
	m, ok := n.(*ast.MapType)
	return ok && lastName(m.Key) == "string"
}

// stringFieldOf matches the declaration of a struct type named one of
// names that has a field whose type mentions string.
func stringFieldOf(names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || !slices.Contains(names, ts.Name.Name) {
			return false
		}
		st, ok := ts.Type.(*ast.StructType)
		return ok && slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool { return holds(f.Type, ident("string")) })
	}
}

// inMethod matches the method recv.name when its body holds a node
// match matches.
func inMethod(recv, name string, match func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil || fd.Name.Name != name {
			return false
		}
		t := fd.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		return lastName(t) == recv && holds(fd.Body, match)
	}
}

// ident matches any use or declaration of one of names.
func ident(names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && slices.Contains(names, id.Name)
	}
}

// holds reports whether any node under x matches match.
func holds(x ast.Node, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		found = found || (n != nil && match(n))
		return !found
	})
	return found
}

// truncates matches a call that cuts a file short: os.Truncate( or a
// file's .Truncate(, and os.WriteFile( of a sliced buffer.
func truncates(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "Truncate" {
		return true
	}
	if lastName(sel.X) != "os" || sel.Sel.Name != "WriteFile" || len(c.Args) != 3 {
		return false
	}
	_, sliced := c.Args[1].(*ast.SliceExpr)
	return sliced
}

// readsRole matches a role.Load() call or a role value's following
// field.
func readsRole(n ast.Node) bool {
	if call("role", "Load")(n) {
		return true
	}
	sel, ok := n.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "following"
}

// roleIf matches an if statement whose init or condition reads the role.
func roleIf(n ast.Node) bool {
	s, ok := n.(*ast.IfStmt)
	return ok && (holds(s.Cond, readsRole) || (s.Init != nil && holds(s.Init, readsRole)))
}

// roleIfOutside matches a function holding a role if that is none of
// allowed.
func roleIfOutside(allowed ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		return ok && fd.Body != nil && !slices.Contains(allowed, fd.Name.Name) && holds(fd.Body, roleIf)
	}
}

// roleNotPointer matches a struct field named role whose type is not
// atomic.Pointer[...]: the role is one swappable value, not a flag.
func roleNotPointer(n ast.Node) bool {
	f, ok := n.(*ast.Field)
	if !ok || !slices.ContainsFunc(f.Names, func(id *ast.Ident) bool { return id.Name == "role" }) {
		return false
	}
	ix, ok := f.Type.(*ast.IndexExpr)
	return !ok || !ref("atomic", "Pointer")(ix.X)
}

// --- the guards ---

var guards = []guard{
	{
		// One framing layer: checksums and varint field reads live in
		// internal/frame, and every binary format is written and read
		// through it.
		name: "CRC and varint decoding only in internal/frame",
		fix:  "frame a format with internal/frame (record, envelope, Enc/Dec), not by hand",
		rules: []rule{
			{what: `import "hash/crc32"`, in: []string{"internal/", "cmd/"}, not: []string{"internal/frame/"}, match: imports("hash/crc32")},
			{what: "binary.Uvarint( / binary.Varint(", in: []string{"internal/", "cmd/"}, not: []string{"internal/frame/"}, match: call("binary", "Uvarint", "Varint")},
		},
		plant: map[string]string{"internal/wal/planted.go": `package wal
import "hash/crc32"
func sum(b []byte) uint32 { v, _ := binary.Uvarint(b); return crc32.ChecksumIEEE(b) + uint32(v) }`},
	},
	{
		// One lifecycle: boot recovery and follower apply share one record
		// dispatcher (apply), boot and promotion one way of claiming the
		// data dir (openStore), and every fault poisons the server through
		// one function (poison).
		name: "one record dispatcher, one store open, one poison site in internal/schedd",
		fix:  "go through openStore / apply / poison",
		rules: []rule{
			{what: "wal.OpenStore(", in: []string{"internal/schedd/"}, min: 1, max: 1, match: call("wal", "OpenStore")},
			{what: "case recAdmit", in: []string{"internal/schedd/"}, min: 1, max: 1, match: caseOf("recAdmit")},
			{what: "failed.Store(", in: []string{"internal/schedd/"}, min: 1, max: 1, match: call("failed", "Store")},
		},
		plant: map[string]string{"internal/schedd/planted.go": `package schedd
func (s *Server) reboot(p []byte) {
	wal.OpenStore(s.cfg.DataDir)
	switch p[0] {
	case recAdmit:
	}
	s.failed.Store(nil)
}`},
	},
	{
		// One upstream round trip: every non-streaming request is built,
		// trace-stamped, sent and read under MaxBody in httpx.Do (the
		// replication tail's stream and snapshot transfer are the stated
		// exceptions), and the gateway reaches its partitions through one
		// call (the only writer of partition health) and one scatter.
		name: "one request builder, one gateway fan-out, one partition-health writer",
		fix:  "send it through httpx.Do (or Endpoints.Do / gateway.call), fan out with scatter",
		rules: []rule{
			{what: "http.NewRequest / http.Get( / http.Post(", in: []string{""},
				not:   []string{"bench/", "internal/httpx/httpx.go", "internal/repl/tail.go"},
				match: ref("http", "NewRequest", "NewRequestWithContext", "Get", "Post")},
			{what: ".Do(req)", in: []string{""}, not: []string{"bench/", "internal/httpx/httpx.go", "internal/repl/tail.go"}, match: doReq},
			{what: "sync.WaitGroup (scatter)", in: []string{"internal/gateway/"}, max: 1, match: ref("sync", "WaitGroup")},
			{what: "partitionUp.With( (initMetrics)", in: []string{"internal/gateway/"}, max: 1, match: call("partitionUp", "With")},
			{what: ".up.Set( (call, and initMetrics starting the series at 0)", in: []string{"internal/gateway/"}, max: 3, match: call("up", "Set")},
			{what: "partErrors.With( (call)", in: []string{"internal/gateway/"}, max: 1, match: call("partErrors", "With")},
		},
		plant: map[string]string{"internal/gateway/planted.go": `package gateway
func (g *Gateway) direct(p *partition) {
	var wg sync.WaitGroup
	req, _ := http.NewRequest("GET", "http://p/v1/stats", nil)
	g.hc.Do(req)
	p.up = partitionUp.With("0")
	p.up.Set(1)
	g.mx.partErrors.With("0").Inc()
	wg.Wait()
}`},
	},
	{
		// One id registry: the job store's records hold every id and the
		// id index finds them through 4-byte slots; a map keyed by job id
		// beside it is a second copy of every id.
		name: "no id-keyed map beside the id index in internal/sched",
		fix:  "look ids up through Fleet's idIndex (get/put/del), not a second map of them",
		rules: []rule{
			{what: "map[int]uint32 / map[int]bool", in: []string{"internal/sched/"}, match: idKeyedMap},
		},
		plant: map[string]string{"internal/sched/planted.go": `package sched
var seen = map[int]bool{}`},
	},
	{
		// Policies plan in the fleet's index space: a job is its position
		// in Tick.Eligible and a region its index, so Step applies a
		// placement without resolving a name, and a policy memoises per
		// region in a slice, not a map of region names.
		name: "policies and Step work in region and job indices in internal/sched",
		fix:  "name jobs by Eligible position and regions by index; memoise in plan's tickMemo, not a map[string]",
		rules: []rule{
			{what: "a string field in Placement or JobView", in: []string{"internal/sched/"}, match: stringFieldOf("Placement", "JobView")},
			{what: "map[string]… in a policy", in: []string{"internal/sched/policies.go", "internal/sched/forecast_policy.go"}, match: stringKeyedMap},
			{what: "ids.get( in Fleet.Step", in: []string{"internal/sched/"}, match: inMethod("Fleet", "Step", call("ids", "get"))},
			{what: "regionIdx in Fleet.Step", in: []string{"internal/sched/"}, match: inMethod("Fleet", "Step", ident("regionIdx"))},
		},
		plant: map[string]string{"internal/sched/policies.go": `package sched
type Placement struct {
	JobID  int
	Region string
}
type cachedGate struct{ CarbonGate }
func (p cachedGate) Plan(t *Tick) []Placement {
	thresholds := map[string]float64{}
	var out []Placement
	for _, j := range t.Eligible {
		region := regionNames[j.Origin]
		if _, ok := thresholds[region]; !ok {
			thresholds[region] = p.threshold(t, j.Origin)
		}
		out = append(out, Placement{JobID: 0, Region: region})
	}
	return out
}
func (f *Fleet) Step() error {
	for _, p := range f.policy.Plan(nil) {
		seq, _ := f.ids.get(f.blocks, p.JobID)
		f.blocks.at(seq).placed = int16(f.regionIdx[p.Region])
	}
	return nil
}`},
	},
	{
		// One job list, stepped serially: the fleet keeps its active jobs
		// in one sequence-sorted list that Submit appends to, and Step
		// runs its phases on the caller. Region shards, their hand-offs
		// and merges, and the engine fan-out cost more than they won.
		name: "no region shards and no worker fan-out in internal/sched",
		fix:  "keep jobs in the fleet's one active list and step it serially; see DESIGN \"The fleet core\"",
		rules: []rule{
			{what: `import "carbonshift/internal/engine"`, in: []string{"internal/sched/"}, match: imports("carbonshift/internal/engine")},
			{what: "fleetShard / shardOf / mergeShards / insertBySeq / movedOut", in: []string{"internal/sched/"},
				match: ident("fleetShard", "shardOf", "mergeShards", "insertBySeq", "movedOut")},
		},
		plant: map[string]string{"internal/sched/planted.go": `package sched
import "carbonshift/internal/engine"
type fleetShard struct{ active, movedOut []uint32 }
func (f *Fleet) mergeShards(shardOf []int) {
	_ = engine.ForEach(nil, 0, len(shardOf), nil)
}`},
	},
	{
		// One fleet, one placement hook: the fleet core is sched.Fleet, and
		// it reports each executed job-hour once, as a Placed, through
		// OnPlace. The old name lives on only in internal/sched/compat.go,
		// for bench/, until both are deleted.
		name: "one fleet type and one placement hook",
		fix:  "use sched.Fleet, NewFleet and OnPlace(Placed); ShardedFleet is compat.go's, for bench/ only",
		rules: []rule{
			{what: "ShardedFleet / NewShardedFleet", in: []string{""}, not: []string{"bench/", "internal/sched/compat.go"},
				match: ident("ShardedFleet", "NewShardedFleet")},
			{what: "OnPlaceDetail", in: []string{""}, tests: true, match: ident("OnPlaceDetail")},
		},
		plant: map[string]string{"internal/schedd/planted.go": `package schedd
type legacy struct{ fleet *sched.ShardedFleet }
func (l *legacy) wire(attribute func(hour, jobID int, region, origin, tenantName string)) {
	l.fleet.OnPlaceDetail = attribute
}`},
	},
	{
		// The hot kernels as measured: simgrid forms the flexible-source
		// powers from one Log and one Frexp (tiltedShares), math.Pow
		// surviving only as tilted's fallback; the selection and ranking
		// kernels sort index slices with slices.SortFunc.
		name: "one math.Pow in internal/simgrid, no sort.Slice in internal/stats or internal/temporal",
		fix:  "take the power in tiltedShares; sort with slices.SortFunc, not the reflective sort.Slice",
		rules: []rule{
			{what: "math.Pow( (tilted, the fallback)", in: []string{"internal/simgrid/"}, min: 1, max: 1, match: call("math", "Pow")},
			{what: "sort.Slice", in: []string{"internal/stats/", "internal/temporal/"}, match: ref("sort", "Slice", "SliceStable", "SliceIsSorted")},
		},
		plant: map[string]string{
			"internal/simgrid/planted.go": `package simgrid
func cube(x float64) float64 { return math.Pow(x, 3) }`,
			"internal/stats/planted.go": `package stats
func order(xs []float64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }`,
		},
	},
	{
		// Request paths log through log/slog with trace_id/span_id
		// stamping (tracing.Logger); an ad-hoc log.Printf cannot carry them.
		name: "no log.Printf",
		fix:  "use log/slog (see internal/tracing.Logger), not log.Printf",
		rules: []rule{
			{what: "log.Printf", in: []string{"internal/", "cmd/"}, tests: true, match: ref("log", "Printf")},
		},
		plant: map[string]string{"cmd/schedd/planted.go": `package main
func warn(err error) { log.Printf("schedd: %v", err) }`},
	},
	{
		// One performance harness: go run ./bench times the system and
		// the paper's experiments, and a kernel's ablation sits in the
		// tests of its own package. A root _test.go is a second harness.
		name: "no _test.go file at the module root",
		fix:  "measure it in go run ./bench, or benchmark the kernel in its own package's _test.go",
		rules: []rule{
			{what: "a _test.go file at the module root", in: []string{""}, tests: true, only: rootTest, match: wholeFile},
		},
		plant: map[string]string{"zz_bench_test.go": `package carbonshift_test
func BenchmarkFig4(b *testing.B) {}`},
	},
	{
		// One role value: what a schedd server is — primary or follower,
		// and its replication session — is one immutable value behind an
		// atomic pointer, swapped only by Promote. The request path
		// branches on it once, in guard; the other role ifs are the
		// lifecycle's own (Promote, Start).
		name: "the role is read only through the role value",
		fix:  "read s.role.Load(); branch on it in guard (request path) or Promote/Start (lifecycle) only",
		rules: []rule{
			{what: "isFollower / rolePrimary / roleFollower / fol", in: []string{"internal/schedd/"},
				match: ident("isFollower", "rolePrimary", "roleFollower", "fol")},
			{what: "a role field that is not an atomic.Pointer", in: []string{"internal/schedd/"}, match: roleNotPointer},
			{what: "an if on the role outside guard, Promote and Start", in: []string{"internal/schedd/"},
				match: roleIfOutside("guard", "Promote", "Start")},
			{what: "ifs on the role", in: []string{"internal/schedd/"}, min: 3, max: 3, match: roleIf},
		},
		plant: map[string]string{"internal/schedd/planted.go": `package schedd
type legacy struct {
	role atomic.Int32
	fol  *followerState
}
func (l *legacy) isFollower() bool { return l.role.Load() == 1 }
func (s *Server) serveWrite(w http.ResponseWriter) {
	if s.role.Load().following {
		return
	}
}`},
	},
	{
		// One fault driver: every crash, restart, replication, chaos and
		// failover test under internal/, of one partition or of the
		// partitioned fleet behind the gateway, is a schedule over the
		// harness in internal/schedd/sim_test.go, checked against its four
		// invariants. A test that builds its own follower or cuts its own
		// journal is a second driver, proving less. internal/wal's own
		// tests cut journals to test the reader itself.
		name: "one fault driver in internal/schedd's tests",
		fix: "drive the fault through the harness in internal/schedd/sim_test.go — a cluster (startFollower, crash, recoverFrom) " +
			"or the partitioned fleet (kill, heal, startGateway) — and add a schedule to its fault_test.go",
		rules: []rule{
			{what: "NewFollower( outside sim_test.go", in: []string{"internal/"}, not: []string{"internal/schedd/sim_test.go"},
				tests: true, only: file.test, match: callNamed("NewFollower")},
			{what: "journal truncation outside sim_test.go and internal/wal", in: []string{"internal/"},
				not: []string{"internal/schedd/sim_test.go", "internal/wal/"}, tests: true, only: file.test, match: truncates},
		},
		plant: map[string]string{
			"internal/schedd/planted_test.go": `package schedd
func TestHandRolledFailover(t *testing.T) {
	f, _ := NewFollower(set, clusters(2), Config{}, FollowerConfig{Primary: url})
	os.Truncate(journal, cut)
	os.WriteFile(journal, data[:cut], 0o644)
	f.Start(ctx)
}`,
			"internal/gateway/planted_test.go": `package gateway
func TestHandRolledPartitionFailover(t *testing.T) {
	standby, _ := schedd.NewFollower(sub, subcl, schedd.Config{}, schedd.FollowerConfig{Primary: url})
	os.WriteFile(journal, data[:cut], 0o644)
	standby.Start(ctx)
}`,
		},
	},
	{
		// One golden harness: internal/golden holds the module's only
		// -update flag, Check (compare, or record under -update) and
		// Frozen (compare only, for fixtures an older build wrote). A
		// flag in a package's tests is a second harness, and one that can
		// re-record a frozen fixture.
		name: "one golden harness: no flag.Bool in internal/ tests",
		fix:  "pin the bytes with golden.Check, or golden.Frozen for a compatibility fixture; -update is internal/golden's",
		rules: []rule{
			{what: "flag.Bool( / flag.BoolVar( in a _test.go file", in: []string{"internal/"}, tests: true, only: file.test,
				match: call("flag", "Bool", "BoolVar")},
		},
		plant: map[string]string{"internal/wal/planted_test.go": `package wal
var update = flag.Bool("update", false, "rewrite golden files")`},
	},
}

// parseTree parses every Go file under root, skipping testdata and
// hidden directories.
func parseTree(t *testing.T, root string) []file {
	t.Helper()
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, file{path: filepath.ToSlash(rel), ast: af, fset: fset})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestArchitecture(t *testing.T) {
	files := parseTree(t, repoRoot)
	if len(files) < 100 {
		t.Fatalf("parsed %d files under %s; is the repository root right?", len(files), repoRoot)
	}
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			for _, v := range g.violations(files) {
				t.Errorf("%s\n\t%s", v, g.fix)
			}
		})
	}
}

// --- exported API with a production caller ---

// exportAllow names the exported functions and methods under internal/
// that no non-test file references, each with the reason it stays.
var exportAllow = map[string]string{
	"trace.ReadCSV":                "the data layer's CSV reader: the only way real Electricity Maps traces enter",
	"trace.Repair":                 "the data layer's gap repair for real traces (DESIGN, data layer)",
	"trace.Resample":               "the data layer's resampling of real traces to hourly (DESIGN, data layer)",
	"trace.GapStats":               "the data layer's gap report for real traces (DESIGN, data layer)",
	"schedd.WithoutMetrics":        "the uninstrumented baseline the instrumentation-overhead bar is measured against",
	"schedd.WithoutTracing":        "the untraced baseline the instrumentation-overhead bar is measured against",
	"fft.FFT":                      "the exact any-length transform the padded-radix-2 ablation holds Autocorr's kernel against",
	"simgrid.CacheStats":           "core's streamed what-if test counts cache entries with it; a _test.go helper cannot cross packages",
	"golden.Check":                 "every package's golden tests pin their bytes with it; a _test.go helper cannot cross packages",
	"golden.Frozen":                "the compatibility fixtures' tests compare with it; a _test.go helper cannot cross packages",
	"serve.statusWriter.Unwrap":    "lets http.ResponseController reach the wrapped ResponseWriter",
	"tenant.retryableError.Unwrap": "lets errors.Is and errors.As see the wrapped error",
}

// export is one exported top-level function or method declared in a
// non-test file under internal/.
type export struct {
	key  string // pkg.Func or pkg.Type.Method
	name string
	site string // path:line
}

// exports lists the exported top-level functions and methods that
// non-test files under internal/ declare.
func exports(files []file) []export {
	var out []export
	for _, f := range files {
		if f.test() || !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.ast.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				key = f.ast.Name.Name + "." + lastName(recv) + "." + fd.Name.Name
			}
			out = append(out, export{key, fd.Name.Name, fmt.Sprintf("%s:%d", f.path, f.fset.Position(fd.Pos()).Line)})
		}
	}
	return out
}

// referenced collects every identifier a non-test file uses, other than
// the names function declarations give: by name, so a method counts as
// called when any selector of that name is, and an exported function
// counts as called when any identifier shares its name. Conservative —
// it can pass an uncalled export, never fail a called one.
func referenced(files []file) map[string]bool {
	seen := map[string]bool{}
	for _, f := range files {
		if f.test() {
			continue
		}
		decl := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decl[fd.Name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				seen[id.Name] = true
			}
			return true
		})
	}
	return seen
}

// uncalledExports lists the exports under internal/ that only tests
// reach and that exportAllow does not name.
func uncalledExports(files []file) []string {
	seen := referenced(files)
	var out []string
	for _, e := range exports(files) {
		if _, ok := exportAllow[e.key]; !ok && !seen[e.name] {
			out = append(out, fmt.Sprintf("%s (%s)", e.key, e.site))
		}
	}
	return out
}

// TestExportsHaveProductionCallers: every exported function or method
// under internal/ is named by some non-test file of the module, or is
// allowlisted with its reason. An export only tests call is a test
// helper in the wrong file, or dead code.
func TestExportsHaveProductionCallers(t *testing.T) {
	files := parseTree(t, repoRoot)
	for _, v := range uncalledExports(files) {
		t.Errorf("%s has no caller outside _test.go files\n\tdelete it, move it into the package's tests, or allowlist it with its reason", v)
	}
	declared := map[string]bool{}
	for _, e := range exports(files) {
		declared[e.key] = true
	}
	for key, why := range exportAllow {
		if !declared[key] {
			t.Errorf("allowlisted %s is not declared under internal/", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlisted %s gives no reason", key)
		}
	}
}

// TestUncalledExportFires plants an exported function whose only caller
// is a test file: the export guard must name it.
func TestUncalledExportFires(t *testing.T) {
	files := parseTree(t, repoRoot)
	fset := token.NewFileSet()
	for path, src := range map[string]string{
		"internal/stats/planted.go": `package stats
func PlantedMedian(xs []float64) float64 { return xs[len(xs)/2] }`,
		"internal/stats/planted_test.go": `package stats
func TestPlanted(t *testing.T) { PlantedMedian([]float64{1}) }`,
	} {
		af, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("plant %s: %v", path, err)
		}
		files = append(files, file{path: path, ast: af, fset: fset})
	}
	got := uncalledExports(files)
	if !slices.ContainsFunc(got, func(v string) bool { return strings.HasPrefix(v, "stats.PlantedMedian (internal/stats/planted.go:") }) {
		t.Fatalf("the planted uncalled export went unreported: %q", got)
	}
}

// TestGuardsFireOnPlantedViolations adds each guard's planted file to
// the real tree and requires the guard to report it — a guard that
// cannot fail guards nothing.
func TestGuardsFireOnPlantedViolations(t *testing.T) {
	files := parseTree(t, repoRoot)
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			planted := slices.Clone(files)
			fset := token.NewFileSet()
			for path, src := range g.plant {
				af, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatalf("plant %s: %v", path, err)
				}
				planted = append(planted, file{path: path, ast: af, fset: fset})
			}
			got := g.violations(planted)
			if len(got) == 0 {
				t.Fatal("the planted violation went unreported")
			}
			for path := range g.plant {
				if !slices.ContainsFunc(got, func(v string) bool { return strings.Contains(v, path) }) {
					t.Errorf("no violation names the planted %s: %q", path, got)
				}
			}
			// Every rule of the guard must be able to fire: the plant
			// breaks each one.
			for _, r := range g.rules {
				if s := r.sites(planted); len(s) >= r.min && len(s) <= r.max {
					t.Errorf("rule %q did not fire on the plant (%d sites)", r.what, len(s))
				}
			}
		})
	}
}
