package schedd

// Every route against every role a server can hold. The role decides
// three things a client sees — whether a route answers at all, the 421
// write redirect with its primary hint, and the replication-lag header
// — so this table pins all three for each (route, role) pair, including
// the follower's refusal of the replication source that keeps chained
// replication out.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/wal"
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
// over httptest; it returns their URLs and the durable primary's URL
// (the followers' primary hint).
func roleServers(t *testing.T) (urls [rowCount]string, primaryURL string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	serve := func(row int, s *Server) {
		t.Cleanup(func() { s.Close() })
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.CloseClientConnections()
			ts.Close()
		})
		urls[row] = ts.URL
	}
	seven := 7
	job := JobRequest{ID: &seven, Origin: "CLEAN", LengthHours: 1, SlackHours: 12}
	primary := func(row int, dataDir string) *Server {
		clock := &hourClock{}
		s, err := New(mkSet(t, 24*10), clusters(4), Config{
			Policy: sched.FIFO{}, DataDir: dataDir, Sync: wal.SyncNone,
		}, WithClock(clock.now))
		if err != nil {
			t.Fatal(err)
		}
		if s.source != nil {
			s.source.Poll = 500 * time.Microsecond
		}
		serve(row, s)
		c, err := NewClient(urls[row], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(ctx, job); err != nil {
			t.Fatal(err)
		}
		return s
	}
	primary(rowMemory, "")
	primary(rowDurable, t.TempDir())
	primaryURL = urls[rowDurable]

	follower := func(row int, dataDir string) *Server {
		clock := &hourClock{}
		s, err := NewFollower(mkSet(t, 24*10), clusters(4), Config{
			Policy: sched.FIFO{}, DataDir: dataDir, Sync: wal.SyncNone,
		}, FollowerConfig{Primary: primaryURL, ReconnectDelay: time.Millisecond}, WithClock(clock.now))
		if err != nil {
			t.Fatal(err)
		}
		serve(row, s)
		s.Start(ctx)
		waitUntil(t, rowNames[row]+" catch-up", func() bool { return s.fleet.Jobs() == 1 })
		return s
	}
	follower(rowFollower, "")
	if promoted, err := follower(rowPromoted, t.TempDir()).Promote(); err != nil || !promoted {
		t.Fatalf("promote = %v, %v", promoted, err)
	}
	return urls, primaryURL
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
			req, err := http.NewRequest(rt.method, urls[row]+rt.path, bytes.NewReader(rt.body))
			if err != nil {
				t.Fatal(err)
			}
			if rt.ctype != "" {
				req.Header.Set("Content-Type", rt.ctype)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lag := resp.Header.Get("X-Replication-Lag-Hours")
			var e ErrorResponse
			if resp.StatusCode == misdirect {
				if err := decodeBody(resp, &e); err != nil {
					t.Fatalf("%s: 421 body: %v", name, err)
				}
			} else {
				resp.Body.Close()
			}
			if resp.StatusCode != rt.want[row] {
				t.Errorf("%s: status %d, want %d", name, resp.StatusCode, rt.want[row])
			}
			if resp.StatusCode == misdirect && e.Primary != primaryURL {
				t.Errorf("%s: 421 primary hint %q, want %q", name, e.Primary, primaryURL)
			}
			if following := row == rowFollower; (lag != "") != following {
				t.Errorf("%s: X-Replication-Lag-Hours %q, want present=%v", name, lag, following)
			}
		}
	}
	// The promote route did promote the follower: it now takes writes.
	resp, err := http.Post(urls[rowFollower]+"/v1/jobs", jsonType,
		bytes.NewReader([]byte(`{"origin":"CLEAN","length_hours":1,"slack_hours":12}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != ok || resp.Header.Get("X-Replication-Lag-Hours") != "" {
		t.Fatalf("write to the promoted follower: status %d, lag header %q", resp.StatusCode,
			resp.Header.Get("X-Replication-Lag-Hours"))
	}
}
