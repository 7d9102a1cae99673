package httpx

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzHTTPXError fuzzes the shared client-side response decoder over
// arbitrary status codes and bodies — the surface every typed client
// (schedd's, the gateway's, repl's) funnels server responses through.
// Invariants: never panic, never succeed on a non-200 status, never
// succeed on a 200 with a malformed body, and always prefix errors with
// the client name.
func FuzzHTTPXError(f *testing.F) {
	f.Add(200, []byte(`{"status":"ok"}`))
	f.Add(200, []byte(`{not json`))
	f.Add(400, []byte(`{"error":"bad request"}`))
	f.Add(503, []byte(`{"error":""}`))
	f.Add(500, []byte(``))
	f.Add(404, []byte(`[1,2,3]`))
	f.Add(-7, []byte(`{"error":"negative status"}`))
	f.Fuzz(func(t *testing.T, code int, body []byte) {
		var out map[string]any
		err := DecodeResponse(code, "fuzzed status", body, "fuzzclient", &out)
		if code != 200 {
			if err == nil {
				t.Fatalf("status %d decoded without error", code)
			}
		} else if err == nil && !json.Valid(body) {
			t.Fatalf("invalid 200 body %q decoded without error", body)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "fuzzclient: ") {
			t.Fatalf("error missing client prefix: %v", err)
		}
		// Every non-200 error is a typed StatusError carrying the code.
		if code != 200 && err != nil {
			if got := StatusCodeOf(err); got != code {
				t.Fatalf("status %d error carries code %d", code, got)
			}
		}
	})
}

// FuzzWriteJSONRoundTrip is a cheap sanity check alongside the error
// fuzz: whatever error string a server writes must survive the
// WriteJSON -> DecodeResponse round trip verbatim.
func FuzzWriteJSONRoundTrip(f *testing.F) {
	f.Add("queue full")
	f.Add("")
	f.Add(`quotes " and \ slashes`)
	f.Fuzz(func(t *testing.T, msg string) {
		if !utf8.ValidString(msg) {
			t.Skip() // Marshal substitutes U+FFFD, so the round trip can't be verbatim
		}
		body, err := json.Marshal(ErrorBody{Error: msg})
		if err != nil {
			t.Skip()
		}
		var out map[string]any
		decodeErr := DecodeResponse(503, "503 Service Unavailable", body, "c", &out)
		if decodeErr == nil {
			t.Fatal("non-200 decoded without error")
		}
		if msg != "" && !strings.Contains(decodeErr.Error(), msg) {
			t.Fatalf("server message %q lost in %v", msg, decodeErr)
		}
	})
}
