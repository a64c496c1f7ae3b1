package plansvc

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"time"
)

// NewHTTPServer wraps h in an http.Server with production timeouts: slow
// header writes, slowloris bodies and stuck responses all get bounded instead
// of pinning a connection forever. Shared by cmd/oooplan's serve and loadgen.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve runs srv until ctx is cancelled (callers typically derive ctx from
// signal.NotifyContext for SIGINT/SIGTERM), then shuts down gracefully:
// in-flight requests get up to grace to finish before the listener is torn
// down hard. Returns nil on a clean drain.
func Serve(ctx context.Context, srv *http.Server, log *slog.Logger, grace time.Duration) error {
	if log == nil {
		log = slog.Default()
	}
	if grace <= 0 {
		grace = 10 * time.Second
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		// Listener failed before any shutdown was requested.
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down", "addr", srv.Addr, "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}
