package schedd

// The server's request-tracing face (GET /debug/traces). Like metrics,
// tracing is always on; Config.TraceSampleEvery and TraceSlow set how
// much of it is recorded (both negative: no spans). The spans a submit
// leaves behind:
//
//	POST /v1/jobs     root (serve middleware; matched route, status)
//	  schedd.decode   request-body parse
//	  fleet.catchup   replay-clock step to the current hour (if any)
//	  schedd.admit    admission critical section; lock_wait_us attr
//	    wal.append    journal-record buffering inside the section
//	  wal.fsync_wait  group-commit durability wait, outside admitMu
//
// When the trace is sampled, its ID rides the admission journal record
// (durable.go) through the replication stream, and the follower's
// repl.apply span (repl.go) joins the same trace — one trace, two
// processes.

import (
	"carbonshift/internal/tracing"
)

// Tracer returns the server's tracer, so embedders (cmd/schedd's debug
// mux) can serve its handler.
func (s *Server) Tracer() *tracing.Tracer { return s.tr }

// initTracing builds the tracer from Config's sampling knobs. Called
// from New before openDurable so the journal sees the tracer from its
// first record.
func (s *Server) initTracing() {
	s.tr = tracing.New(tracing.Config{
		SampleEvery:   s.cfg.TraceSampleEvery,
		SlowThreshold: s.cfg.TraceSlow,
	})
}
