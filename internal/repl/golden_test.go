package repl

// Golden-file pin of the replication wire format. A primary and a
// follower may run different builds during a rolling upgrade, so the
// frame encoding is versioned and must never drift silently. If this
// test fails because the format deliberately changed, bump
// streamVersion, teach the decoder the old version, and regenerate:
//
//	go test ./internal/repl -run TestStreamGolden -update

import (
	"encoding/hex"
	"testing"

	"carbonshift/internal/golden"
)

func TestStreamGolden(t *testing.T) {
	golden.Check(t, "stream_v1.golden", []byte(hex.EncodeToString(sampleStream())+"\n"))
}
