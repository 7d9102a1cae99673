// Package serve is the shared HTTP-server lifecycle helper for the
// cmd/ services (schedd, schedgw): serve until the context is
// cancelled — typically by signal.NotifyContext on SIGINT/SIGTERM —
// then drain in-flight requests gracefully instead of dropping them.
package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// DefaultGrace is how long Serve waits for in-flight requests to finish
// after the context is cancelled.
const DefaultGrace = 10 * time.Second

// ListenAndServe listens on srv.Addr and runs Serve.
func ListenAndServe(ctx context.Context, srv *http.Server, grace time.Duration) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	return Serve(ctx, srv, ln, grace)
}

// Serve accepts connections on ln until ctx is done, then shuts the
// server down gracefully, waiting up to grace (DefaultGrace if <= 0)
// for in-flight requests. A clean shutdown returns nil; the listener is
// closed in all cases.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration) error {
	if grace <= 0 {
		grace = DefaultGrace
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; the listener died on its own.
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
