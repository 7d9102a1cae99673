// Package archtest holds the repository's architecture guards: each
// keeps one piece of the design single — one framing layer, one
// lifecycle, one upstream round trip, one id registry, index-typed
// policies, one serially stepped job list, one fleet type and placement
// hook, the measured kernels, one logger, one role value, one
// performance harness, one fault and server driver, one golden harness — by
// counting, over the parsed Go source, the sites that would start a
// second copy. They run under go test ./..., and every guard is shown to
// fire on a planted violation. The document checks (docs_test.go) keep
// the test names, line references, package inventory and sizes of the
// repository's design documents true to the code in the same way.
package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
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

// servesHandler matches httptest.NewServer(x.Handler()): a server's
// handler served over HTTP.
func servesHandler(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	return ok && call("httptest", "NewServer")(c) && len(c.Args) == 1 && callNamed("Handler")(c.Args[0])
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
		// one function (poison). A journal is created only by
		// wal.Store.Rotate, the one owner of a generation's rotation.
		name: "one record dispatcher, one store open, one poison site in internal/schedd",
		fix:  "go through openStore / apply / poison; make a generation live with wal.Store.Rotate",
		rules: []rule{
			{what: "wal.OpenStore(", in: []string{"internal/schedd/"}, min: 1, max: 1, match: call("wal", "OpenStore")},
			{what: "case recAdmit", in: []string{"internal/schedd/"}, min: 1, max: 1, match: caseOf("recAdmit")},
			{what: "failed.Store(", in: []string{"internal/schedd/"}, min: 1, max: 1, match: call("failed", "Store")},
			{what: "wal.Create( outside internal/wal", in: []string{"internal/", "cmd/"}, not: []string{"internal/wal/"}, match: call("wal", "Create")},
		},
		plant: map[string]string{"internal/schedd/planted.go": `package schedd
func (s *Server) reboot(p []byte) {
	wal.OpenStore(s.cfg.DataDir)
	wal.Create(s.JournalPath(1), wal.Options{})
	switch p[0] {
	case recAdmit:
	}
	s.failed.Store(nil)
}`},
	},
	{
		// One upstream round trip: every non-streaming request is built,
		// trace-stamped, sent and read under MaxBody in httpx.Do; the
		// replication tail's stream and snapshot transfer, the stated
		// exceptions, share its one request, Tail.get. The gateway
		// reaches its partitions through one call (the only writer of
		// partition health) and one scatter.
		name: "one request builder, one gateway fan-out, one partition-health writer",
		fix:  "send it through httpx.Do (or Endpoints.Do / gateway.call, or the replication tail's Tail.get), fan out with scatter",
		rules: []rule{
			{what: "http.NewRequest / http.Get( / http.Post(", in: []string{""},
				not:   []string{"bench/", "internal/httpx/httpx.go", "internal/repl/"},
				match: ref("http", "NewRequest", "NewRequestWithContext", "Get", "Post")},
			{what: ".Do(req)", in: []string{""}, not: []string{"bench/", "internal/httpx/httpx.go", "internal/repl/"}, match: doReq},
			{what: "http.NewRequestWithContext( (Tail.get)", in: []string{"internal/repl/"}, min: 1, max: 1,
				match: ref("http", "NewRequest", "NewRequestWithContext", "Get", "Post")},
			{what: ".Do(req) (Tail.get)", in: []string{"internal/repl/"}, min: 1, max: 1, match: doReq},
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
}`, "internal/repl/planted.go": `package repl
func (t *Tail) health(ctx context.Context) {
	req, _ := http.NewRequestWithContext(ctx, "GET", t.primary+"/healthz", nil)
	t.hc.Do(req)
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
		// in the Tick (Tick.Job) and a region its index, so Step applies a
		// placement without resolving a name, and a policy memoises per
		// region in a slice, not a map of region names.
		name: "policies and Step work in region and job indices in internal/sched",
		fix:  "name jobs by Tick position and regions by index; memoise in plan's tickMemo, not a map[string]",
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
	for k := range t.Len() {
		j := t.Job(k)
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
		// for bench/, and in the two test files that hold its ignored
		// shard count to a no-op, until all are deleted.
		name: "one fleet type and one placement hook",
		fix:  "use sched.Fleet, NewFleet and OnPlace(Placed); ShardedFleet is compat.go's, for bench/ only",
		rules: []rule{
			{what: "ShardedFleet / NewShardedFleet", in: []string{""}, tests: true,
				not:   []string{"bench/", "internal/sched/compat.go", "internal/sched/sharded_test.go", "internal/sched/state_test.go"},
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
		// surviving only as tilted's fallback; its per-hour Exp, Log and
		// Cos are batch calls (kernels.go), so the scalar calls left are
		// tiltedShares', the batches' own fallbacks and the per-day and
		// per-hour-of-day terms of drawWeather; the selection and ranking
		// kernels sort index slices with slices.SortFunc.
		name: "one math.Pow in internal/simgrid, no sort.Slice in internal/stats or internal/temporal",
		fix: "take the power in tiltedShares and a per-hour transcendental in expBatch, logBatch or cosBatch; " +
			"sort with slices.SortFunc, not the reflective sort.Slice",
		rules: []rule{
			{what: "math.Pow( (tilted, the fallback)", in: []string{"internal/simgrid/"}, min: 1, max: 1, match: call("math", "Pow")},
			{what: "math.Exp( (tiltedShares' three, expBatch's fallback)", in: []string{"internal/simgrid/"}, min: 4, max: 4,
				match: call("math", "Exp")},
			{what: "math.Log( (tiltedShares, logBatch's fallback)", in: []string{"internal/simgrid/"}, min: 2, max: 2,
				match: call("math", "Log")},
			{what: "math.Cos( (drawWeather's three by hour of day, cos(lat), two by day; cosBatch's fallback)",
				in: []string{"internal/simgrid/"}, min: 7, max: 7, match: call("math", "Cos")},
			{what: "sort.Slice", in: []string{"internal/stats/", "internal/temporal/"}, match: ref("sort", "Slice", "SliceStable", "SliceIsSorted")},
		},
		plant: map[string]string{
			"internal/simgrid/planted.go": `package simgrid
func cube(x float64) float64 { return math.Pow(x, 3) }
func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
func gauss(u1, u2 float64) float64 { return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2) }`,
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
		// tests cut journals to test the reader itself. One server driver:
		// an internal/schedd or internal/gateway test that needs a server
		// over HTTP takes a node of a cluster or of the partitioned fleet
		// too, so the same invariants check it; internal/gateway's own
		// tests serve fake partitions, which are not Servers. The harness's
		// network is its link, an http.Transport: a test that calls Dial
		// is a forwarder beside it.
		name: "one fault driver in internal/schedd's tests",
		fix: "drive the fault through the harness in internal/schedd/sim_test.go — a cluster (startFollower, crash, recoverFrom) " +
			"or the partitioned fleet (kill, heal, startGateway) — and add a schedule to its fault_test.go; " +
			"take a server from a cluster (newCluster, or a row of admission_test.go's table) " +
			"or from the partitioned fleet (a row of partitioned_test.go's table); " +
			"cut, move or close a connection through the harness's link",
		rules: []rule{
			{what: "NewFollower( outside sim_test.go", in: []string{"internal/"}, not: []string{"internal/schedd/sim_test.go"},
				tests: true, only: file.test, match: callNamed("NewFollower")},
			{what: "journal truncation outside sim_test.go and internal/wal", in: []string{"internal/"},
				not: []string{"internal/schedd/sim_test.go", "internal/wal/"}, tests: true, only: file.test, match: truncates},
			{what: "a Server's Handler() served by httptest.NewServer outside sim_test.go", in: []string{"internal/schedd/", "internal/gateway/"},
				not: []string{"internal/schedd/sim_test.go"}, tests: true, only: file.test, match: servesHandler},
			{what: "Dial( in an internal/schedd or internal/gateway test", in: []string{"internal/schedd/", "internal/gateway/"},
				tests: true, only: file.test, match: callNamed("Dial")},
		},
		plant: map[string]string{
			"internal/schedd/planted_test.go": `package schedd
func TestHandRolledFailover(t *testing.T) {
	f, _ := NewFollower(set, clusters(2), Config{}, FollowerConfig{Primary: url})
	os.Truncate(journal, cut)
	os.WriteFile(journal, data[:cut], 0o644)
	f.Start(ctx)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	up, _ := net.Dial("tcp", ts.Listener.Addr().String())
}`,
			"internal/gateway/planted_test.go": `package gateway
func TestHandRolledPartitionFailover(t *testing.T) {
	standby, _ := schedd.NewFollower(sub, subcl, schedd.Config{}, schedd.FollowerConfig{Primary: url})
	os.WriteFile(journal, data[:cut], 0o644)
	standby.Start(ctx)
	ts := httptest.NewServer(standby.Handler())
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
	"fft.FFT":                      "the exact any-length transform the padded-radix-2 ablation holds Autocorr's kernel against",
	"simgrid.CacheStats":           "core's streamed what-if test counts cache entries with it; a _test.go helper cannot cross packages",
	"golden.Check":                 "every package's golden tests pin their bytes with it; a _test.go helper cannot cross packages",
	"golden.Frozen":                "the compatibility fixtures' tests compare with it; a _test.go helper cannot cross packages",
	"regions.MustByCode":           "tests in five packages name catalog regions with it; a _test.go helper cannot cross packages",
	"stats.MinWindowSum":           "the deferred-cost kernel of temporal's single-job reference (Evaluate, under SweepNaive); its own naive reference is in stats_test.go",
	"regions.Region.Validate":      "the catalog test and simgrid's fuzz case generator hold regions to it; a _test.go helper cannot cross packages",
	"trace.Set.WriteCSV":           "ReadCSV's paired writer: the CSV round trip real traces come in by (ROADMAP item 17)",
	"serve.statusWriter.Unwrap":    "lets http.ResponseController reach the wrapped ResponseWriter",
	"tenant.retryableError.Unwrap": "lets errors.Is and errors.As see the wrapped error",
}

// export is one exported top-level function or method declared in a
// non-test file under internal/.
type export struct {
	key  string     // pkg.Func or pkg.Type.Method
	id   *ast.Ident // its name in the declaration
	site string     // path:line
}

// exports lists the exported top-level functions and methods that
// non-test files under internal/ declare.
func exports(files []file) []export {
	var out []export
	for _, f := range files {
		if f.test() || !strings.HasPrefix(f.path, "internal/") || !buildable(f) {
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
			out = append(out, export{key, fd.Name, fmt.Sprintf("%s:%d", f.path, f.fset.Position(fd.Pos()).Line)})
		}
	}
	return out
}

// stdImporter reads the standard library's export data; one instance
// serves every type-check, so each package is read once.
var stdImporter = importer.Default()

// buildable reports whether go build compiles f on this platform: its
// file-name suffix and //go:build line allow it. A planted file is not
// on disk and has neither.
func buildable(f file) bool {
	ok, err := build.Default.MatchFile(filepath.Join(repoRoot, path.Dir(f.path)), path.Base(f.path))
	return ok || errors.Is(err, fs.ErrNotExist)
}

// moduleImporter type-checks the module's packages from their parsed
// non-test files, each once, recording into one Info; other imports go
// to stdImporter.
type moduleImporter struct {
	fset *token.FileSet
	dirs map[string][]*ast.File // import path → its files
	pkgs map[string]*types.Package
	info *types.Info
	errs []error
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := m.dirs[p]
	if !ok {
		return stdImporter.Import(p)
	}
	conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err) }}
	pkg, _ := conf.Check(p, m.fset, files, m.info)
	m.pkgs[p] = pkg
	return pkg, nil
}

// typeCheck type-checks every package of the module's non-test code.
func typeCheck(t *testing.T, files []file) *types.Info {
	t.Helper()
	m := &moduleImporter{
		fset: files[0].fset,
		dirs: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, f := range files {
		if !f.test() && buildable(f) {
			p := path.Join("carbonshift", path.Dir(f.path))
			m.dirs[p] = append(m.dirs[p], f.ast)
		}
	}
	for p := range m.dirs {
		m.Import(p)
	}
	for _, err := range m.errs {
		t.Errorf("type-checking the module: %v", err)
	}
	return m.info
}

// reached is the set of functions and methods the module's non-test
// code reaches: every one it names, and every method of a type it
// converts to an interface that has the method, where a call on the
// interface dispatches. A conversion to any interface also reaches the
// methods of error, fmt.Stringer and http.Flusher, which the standard
// library finds by type assertion.
func reached(t *testing.T, files []file, info *types.Info) map[*types.Func]bool {
	t.Helper()
	out := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			out[fn.Origin()] = true
		}
	}
	asserted := []types.Type{types.Universe.Lookup("error").Type()}
	for _, name := range []string{"fmt.Stringer", "net/http.Flusher"} {
		dot := strings.LastIndex(name, ".")
		pkg, err := stdImporter.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		asserted = append(asserted, pkg.Scope().Lookup(name[dot+1:]).Type())
	}
	convert := func(to types.Type, e ast.Expr) {
		from := info.Types[e].Type
		if to == nil || from == nil || types.IsInterface(from) {
			return
		}
		if _, ok := to.(*types.TypeParam); ok || !types.IsInterface(to) {
			return
		}
		ms := types.NewMethodSet(from)
		for _, iface := range append([]types.Type{to}, asserted...) {
			if iface != to && !types.Implements(from, iface.Underlying().(*types.Interface)) {
				continue
			}
			it := iface.Underlying().(*types.Interface)
			for i := range it.NumMethods() {
				if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					out[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	for _, f := range files {
		if f.test() || !buildable(f) {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				tv := info.Types[n.Fun]
				if tv.IsType() && len(n.Args) == 1 {
					convert(tv.Type, n.Args[0])
				} else if sig, ok := tv.Type.(*types.Signature); ok && !tv.IsBuiltin() {
					for i, arg := range n.Args {
						convert(paramType(sig, i, n.Ellipsis.IsValid()), arg)
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						convert(info.Types[lhs].Type, n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						convert(info.Types[n.Type].Type, v)
					}
				}
			case *ast.SendStmt:
				if ch, ok := info.Types[n.Chan].Type.Underlying().(*types.Chan); ok {
					convert(ch.Elem(), n.Value)
				}
			case *ast.ReturnStmt:
				if sig := enclosingSignature(info, stack); sig != nil && sig.Results().Len() == len(n.Results) {
					for i, r := range n.Results {
						convert(sig.Results().At(i).Type(), r)
					}
				}
			case *ast.CompositeLit:
				for i, elt := range n.Elts {
					key, value := ast.Expr(nil), elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						key, value = kv.Key, kv.Value
					}
					switch u := info.Types[n].Type.Underlying().(type) {
					case *types.Struct:
						for j := range u.NumFields() {
							if id, ok := key.(*ast.Ident); key == nil && j == i || ok && u.Field(j).Name() == id.Name {
								convert(u.Field(j).Type(), value)
							}
						}
					case *types.Slice:
						convert(u.Elem(), value)
					case *types.Array:
						convert(u.Elem(), value)
					case *types.Map:
						convert(u.Key(), key)
						convert(u.Elem(), value)
					}
				}
			}
			return true
		})
	}
	return out
}

// paramType is the type argument i of a call to sig is assigned to.
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	n := sig.Params().Len()
	if !sig.Variadic() || i < n-1 {
		if i < n {
			return sig.Params().At(i).Type()
		}
		return nil
	}
	last := sig.Params().At(n - 1).Type()
	if spread {
		return last
	}
	return last.(*types.Slice).Elem()
}

// enclosingSignature is the signature of the innermost function on
// stack, the path from the file down to the current node.
func enclosingSignature(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return info.Defs[fn.Name].Type().(*types.Signature)
		case *ast.FuncLit:
			return info.Types[fn].Type.(*types.Signature)
		}
	}
	return nil
}

// uncalledExports lists the exports under internal/ that only tests
// reach and that exportAllow does not name.
func uncalledExports(t *testing.T, files []file) []string {
	t.Helper()
	info := typeCheck(t, files)
	reach := reached(t, files, info)
	var out []string
	for _, e := range exports(files) {
		fn, _ := info.Defs[e.id].(*types.Func)
		if _, ok := exportAllow[e.key]; !ok && !reach[fn] {
			out = append(out, fmt.Sprintf("%s (%s)", e.key, e.site))
		}
	}
	return out
}

// TestExportsHaveProductionCallers: every exported function or method
// under internal/ is reached by some non-test file of the module, with
// methods resolved by their receiver's type (see reached), or is
// allowlisted with its reason. An export only tests call is a test
// helper in the wrong file, or dead code.
func TestExportsHaveProductionCallers(t *testing.T) {
	files := parseTree(t, repoRoot)
	for _, v := range uncalledExports(t, files) {
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

// TestUncalledExportFires plants exported functions and methods whose
// only callers are test files, each beside a namesake the rule must not
// take for a call: a struct field selected but not called, another
// package's function of the same name, a field of the same name, and a
// method of another type (trace.Trace.Len) that production code calls.
// The export guard must name every one.
func TestUncalledExportFires(t *testing.T) {
	files := parseTree(t, repoRoot)
	fset := files[0].fset // the type-check reads every file through one set
	for path, src := range map[string]string{
		"internal/stats/planted.go": `package stats
import "path/filepath"
type plantedWindow struct{ Span, Width int }
type plantedSeries []float64
func (s plantedSeries) Span() int { return len(s) }
func (s plantedSeries) Len() int { return len(s) }
func PlantedMedian(xs []float64) float64 { return xs[len(xs)/2] }
func Dir(p string) string { return p }
func Width(s plantedSeries) int { return len(s) }
func widen(w plantedWindow) plantedWindow {
	return plantedWindow{Span: w.Span, Width: w.Width + len(filepath.Dir("a/b"))}
}`,
		"internal/stats/planted_test.go": `package stats
func TestPlanted(t *testing.T) { PlantedMedian([]float64{1}); Dir(""); Width(nil); plantedSeries{}.Span(); plantedSeries{}.Len() }`,
	} {
		af, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("plant %s: %v", path, err)
		}
		files = append(files, file{path: path, ast: af, fset: fset})
	}
	got := uncalledExports(t, files)
	for _, key := range []string{"stats.PlantedMedian", "stats.plantedSeries.Span", "stats.plantedSeries.Len", "stats.Dir", "stats.Width"} {
		if !slices.ContainsFunc(got, func(v string) bool { return strings.HasPrefix(v, key+" (internal/stats/planted.go:") }) {
			t.Errorf("the planted uncalled export %s went unreported: %q", key, got)
		}
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
