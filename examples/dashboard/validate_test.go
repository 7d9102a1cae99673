package dashboard

// The drift tests: the dashboard, the alert rules, the scrape config,
// and the two operator documents are validated against a LIVE server's
// /metrics output, not against a hand-maintained list — renaming a
// metric, adding an alert without a runbook section, or shipping an
// undocumented family fails this package's tests.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"carbonshift/internal/gateway"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/serve"
	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

// liveFamilies renders a real follower schedd (whose registry carries
// the schedd_*, wal_*, repl_*, http_* and go_* families) and a routing
// gateway (gateway_*), and returns every family name with its TYPE.
func liveFamilies(t *testing.T) map[string]string {
	t.Helper()
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	ci := make([]float64, 48)
	for i := range ci {
		ci[i] = 100
	}
	set, err := trace.NewSet([]*trace.Trace{
		trace.New("CLEAN", start, ci),
		trace.New("DIRTY", start, ci),
	})
	if err != nil {
		t.Fatal(err)
	}
	clusters := []sched.Cluster{{Region: "CLEAN", Slots: 2}, {Region: "DIRTY", Slots: 2}}

	// A follower (never started) registers the full surface; Promote is
	// not needed for registration. The tenant config makes the
	// schedd_tenant_* families live, so this doc-drift test covers the
	// multi-tenant surface too.
	tenants, err := tenant.NewConfig([]tenant.Spec{{Name: "web"}, {Name: "*"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := schedd.NewFollower(set, clusters, schedd.Config{Policy: sched.FIFO{}, Tenants: tenants},
		schedd.FollowerConfig{Primary: "http://127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A gateway registers the gateway_* families at construction;
	// topology learning is lazy, so no live partition is needed.
	gw, err := gateway.New(gateway.Config{Partitions: [][]string{{"http://127.0.0.1:9"}}})
	if err != nil {
		t.Fatal(err)
	}

	fams := map[string]string{}
	renderInto(t, fams, func(buf *bytes.Buffer) error { return srv.Metrics().WriteTo(buf) })
	renderInto(t, fams, func(buf *bytes.Buffer) error { return gw.Metrics().WriteTo(buf) })
	return fams
}

func renderInto(t *testing.T, fams map[string]string, render func(*bytes.Buffer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[f[2]] = f[3]
		}
	}
}

// known reports whether a referenced metric name resolves against the
// live families, accepting the _bucket/_sum/_count series of a
// histogram and Prometheus's synthetic `up`.
func known(fams map[string]string, name string) bool {
	if name == "up" {
		return true
	}
	if _, ok := fams[name]; ok {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if found && fams[base] == "histogram" {
			return true
		}
	}
	return false
}

var identRe = regexp.MustCompile(`[a-zA-Z_][a-zA-Z0-9_]*`)

// metricNames extracts the metric identifiers referenced by a PromQL
// expression: every identifier that carries one of this repo's family
// prefixes, plus `up`.
func metricNames(expr string) []string {
	var out []string
	for _, id := range identRe.FindAllString(expr, -1) {
		switch {
		case strings.HasPrefix(id, "schedd_"),
			strings.HasPrefix(id, "wal_"),
			strings.HasPrefix(id, "repl_"),
			strings.HasPrefix(id, "http_"),
			strings.HasPrefix(id, "gateway_"),
			id == "up":
			out = append(out, id)
		}
	}
	return out
}

func TestDashboardJSON(t *testing.T) {
	raw, err := os.ReadFile("dashboard.json")
	if err != nil {
		t.Fatal(err)
	}
	var dash struct {
		Title  string `json:"title"`
		Panels []struct {
			Title   string `json:"title"`
			Targets []struct {
				Expr string `json:"expr"`
			} `json:"targets"`
		} `json:"panels"`
	}
	if err := json.Unmarshal(raw, &dash); err != nil {
		t.Fatalf("dashboard.json is not valid JSON: %v", err)
	}
	if dash.Title == "" || len(dash.Panels) < 10 {
		t.Fatalf("dashboard has title %q and %d panels; want a title and >= 10 panels", dash.Title, len(dash.Panels))
	}
	fams := liveFamilies(t)
	for _, p := range dash.Panels {
		if len(p.Targets) == 0 {
			t.Errorf("panel %q has no query targets", p.Title)
		}
		for _, tgt := range p.Targets {
			if tgt.Expr == "" {
				t.Errorf("panel %q has a target without an expr", p.Title)
			}
			for _, name := range metricNames(tgt.Expr) {
				if !known(fams, name) {
					t.Errorf("panel %q references %s, which no live /metrics exposes", p.Title, name)
				}
			}
		}
	}
}

func TestAlertRules(t *testing.T) {
	raw, err := os.ReadFile("alerts.yml")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	alerts := regexp.MustCompile(`(?m)^\s*- alert:\s*(\S+)`).FindAllStringSubmatch(text, -1)
	exprs := regexp.MustCompile(`(?m)^\s*expr:\s*(.+)$`).FindAllStringSubmatch(text, -1)
	if len(alerts) < 4 {
		t.Fatalf("alerts.yml ships %d alerts; want at least the 4 core rules", len(alerts))
	}
	if len(exprs) != len(alerts) {
		t.Fatalf("alerts.yml has %d alerts but %d exprs", len(alerts), len(exprs))
	}

	fams := liveFamilies(t)
	for _, m := range exprs {
		for _, name := range metricNames(m[1]) {
			if !known(fams, name) {
				t.Errorf("alert expr %q references %s, which no live /metrics exposes", m[1], name)
			}
		}
	}

	// Every alert must carry a runbook annotation and a matching
	// section (## AlertName heading) in docs/RUNBOOK.md.
	runbook, err := os.ReadFile("../../docs/RUNBOOK.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range alerts {
		name := m[1]
		if !strings.Contains(text, "runbook: docs/RUNBOOK.md#"+strings.ToLower(name)) {
			t.Errorf("alert %s has no runbook: annotation pointing at docs/RUNBOOK.md", name)
		}
		if !strings.Contains(string(runbook), "## "+name) {
			t.Errorf("alert %s has no `## %s` section in docs/RUNBOOK.md", name, name)
		}
	}
}

func TestPrometheusConfig(t *testing.T) {
	raw, err := os.ReadFile("prometheus.yml")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{"- alerts.yml", "job_name: schedd", "scrape_interval:"} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus.yml is missing %q", want)
		}
	}
}

// TestDocDebugRoutesExist pins every /debug/... route the operator
// docs mention to a live handler: each referenced path must be served
// (non-404) by either the service handler (where /debug/traces lives)
// or the -debug-addr operator mux (where pprof lives). A doc telling
// an operator to curl a route that no longer exists fails here.
func TestDocDebugRoutesExist(t *testing.T) {
	var docs []string
	for _, p := range []string{"../../docs/OBSERVABILITY.md", "../../docs/RUNBOOK.md"} {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(raw))
	}
	routes := map[string]bool{}
	re := regexp.MustCompile(`/debug/[a-z]+/?`)
	for _, doc := range docs {
		for _, r := range re.FindAllString(doc, -1) {
			routes[r] = true
		}
	}
	if !routes["/debug/traces"] || !routes["/debug/pprof/"] {
		t.Fatalf("docs reference %v; expected at least /debug/traces and /debug/pprof/", routes)
	}

	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	ci := make([]float64, 48)
	for i := range ci {
		ci[i] = 100
	}
	set, err := trace.NewSet([]*trace.Trace{trace.New("CLEAN", start, ci)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := schedd.New(set, []sched.Cluster{{Region: "CLEAN", Slots: 2}},
		schedd.Config{Policy: sched.FIFO{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handlers := map[string]http.Handler{
		"service": srv.Handler(),
		"debug mux": serve.NewDebugMux(map[string]http.Handler{
			"/debug/traces": srv.Tracer().Handler(),
		}),
	}
	for route := range routes {
		served := false
		for name, h := range handlers {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, route, nil))
			if rr.Code != http.StatusNotFound {
				t.Logf("%s serves %s (%d)", name, route, rr.Code)
				served = true
			}
		}
		if !served {
			t.Errorf("docs reference %s but no handler serves it", route)
		}
	}
}

// TestObservabilityDocCoverage pins the reference doc to the live
// surface in both directions: every family a real server exposes is
// documented, and every schedd_*/wal_*/repl_*/http_*/gateway_*/go_*
// name the doc backticks still exists.
func TestObservabilityDocCoverage(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	fams := liveFamilies(t)
	for name := range fams {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("live family %s is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	for _, m := range regexp.MustCompile("`(schedd_[a-z_]+|wal_[a-z_]+|repl_[a-z_]+|http_[a-z_]+|gateway_[a-z_]+|go_[a-z_]+)`").FindAllStringSubmatch(doc, -1) {
		if !known(fams, m[1]) {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which no live /metrics exposes", m[1])
		}
	}
}
