package schedd

// Every route against every role a server can hold. The role decides
// three things a client sees — whether a route answers at all, the 421
// write redirect with its primary hint, and the replication-lag header
// — so this table pins all three for each (route, role) pair, including
// the follower's refusal of the replication source that keeps chained
// replication out.

import (
	"cmp"
	"encoding/json"
	"net/http"
	"testing"

	"carbonshift/internal/httpx"
	"carbonshift/internal/sched"
)

// The four roles, in the order of a route's want column.
const (
	rowMemory   = iota // New, no DataDir
	rowDurable         // New with a DataDir: the primary both followers replicate
	rowFollower        // NewFollower, started and caught up
	rowPromoted        // NewFollower with a DataDir, caught up, then Promote
	rowCount
)

var rowNames = [rowCount]string{"memory", "durable", "follower", "promoted"}

// roleServers boots one server per row, each holding job 7 and serving
// over HTTP; it returns their URLs and the primary URL the follower row
// was given (its 421 hint).
func roleServers(t *testing.T) (urls [rowCount]string, primaryURL string) {
	t.Helper()
	seven := 7
	job := JobRequest{ID: &seven, Origin: "CLEAN", LengthHours: 1, SlackHours: 12}
	memory := newCluster(t, world{policy: sched.FIFO{}, slots: 4, memory: true}).primary.client
	c := newCluster(t, world{policy: sched.FIFO{}, horizon: 24 * 10, slots: 4})
	for _, client := range []*Client{memory, c.primary.client} {
		if _, err := client.Submit(c.ctx, job); err != nil {
			t.Fatal(err)
		}
	}
	follower := c.startFollower(FollowerConfig{}, true)
	promoted := c.startFollower(FollowerConfig{}, false)
	c.settle()
	if ok, err := promoted.srv.Promote(); err != nil || !ok {
		t.Fatalf("promote = %v, %v", ok, err)
	}
	urls = [rowCount]string{memory.Endpoint(), c.primary.ts.URL, follower.ts.URL, promoted.ts.URL}
	return urls, follower.proxy.URL()
}

func TestRouteRoleTable(t *testing.T) {
	urls, primaryURL := roleServers(t)
	binaryBody, err := BinaryWire.AppendSubmit(nil, []JobRequest{{Origin: "DIRTY", LengthHours: 1, SlackHours: 12}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		ok         = http.StatusOK
		misdirect  = http.StatusMisdirectedRequest
		notFound   = http.StatusNotFound
		badCursor  = http.StatusGone // the source answered: no cursor given
		jsonType   = "application/json"
		binaryType = BinaryContentType
	)
	// Promote runs last: it turns the follower row into a primary.
	routes := []struct {
		method, path, ctype string
		body                []byte
		want                [rowCount]int
	}{
		{"POST", "/v1/jobs", jsonType, []byte(`{"origin":"CLEAN","length_hours":1,"slack_hours":12}`),
			[rowCount]int{ok, ok, misdirect, ok}},
		{"POST", "/v1/jobs/batch", binaryType, binaryBody,
			[rowCount]int{ok, ok, misdirect, ok}},
		{"GET", "/v1/jobs/7", "", nil, [rowCount]int{ok, ok, ok, ok}},
		{"GET", "/v1/stats", "", nil, [rowCount]int{ok, ok, ok, ok}},
		{"GET", "/metrics", "", nil, [rowCount]int{ok, ok, ok, ok}},
		{"GET", "/healthz", "", nil, [rowCount]int{ok, ok, ok, ok}},
		{"GET", "/v1/repl/stream", "", nil, [rowCount]int{notFound, badCursor, misdirect, badCursor}},
		{"GET", "/v1/repl/snapshot", "", nil, [rowCount]int{notFound, ok, misdirect, ok}},
		{"POST", "/v1/repl/promote", "", nil, [rowCount]int{ok, ok, ok, ok}},
	}
	for _, rt := range routes {
		for row := 0; row < rowCount; row++ {
			name := rt.method + " " + rt.path + " on " + rowNames[row]
			h, body, err := roundTrip(t, rt.method, urls[row]+rt.path, rt.ctype, rt.body)
			if status := cmp.Or(httpx.StatusCodeOf(err), ok); status != rt.want[row] {
				t.Errorf("%s: status %d, want %d", name, status, rt.want[row])
			}
			var e ErrorResponse
			if rt.want[row] == misdirect && (json.Unmarshal(body, &e) != nil || e.Primary != primaryURL) {
				t.Errorf("%s: 421 primary hint %q, want %q", name, e.Primary, primaryURL)
			}
			if lag, following := h.Get("X-Replication-Lag-Hours"), row == rowFollower; (lag != "") != following {
				t.Errorf("%s: X-Replication-Lag-Hours %q, want present=%v", name, lag, following)
			}
		}
	}
	// The promote route did promote the follower: it now takes writes.
	h, _, err := roundTrip(t, "POST", urls[rowFollower]+"/v1/jobs", jsonType, []byte(`{"origin":"CLEAN","length_hours":1,"slack_hours":12}`))
	if err != nil || h.Get("X-Replication-Lag-Hours") != "" {
		t.Fatalf("write to the promoted follower: %v, lag header %q", err, h.Get("X-Replication-Lag-Hours"))
	}
}
