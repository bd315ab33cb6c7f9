// Package obs is the pipeline's observability layer: span tracing in
// Chrome trace-event format (loadable in Perfetto / chrome://tracing),
// structured logging via log/slog, and a registry of named counters,
// gauges, and fixed-bucket histograms, plus a live debug HTTP endpoint
// (Prometheus exposition + net/http/pprof).
//
// Everything is opt-in and nil-safe: a nil *Observer (the default for
// every Config in the pipeline) short-circuits all instrumentation, so
// observability off changes neither output bytes nor metered costs. The
// paper's whole evaluation is per-phase time/IO attribution (Tables
// II/III, Figs. 8-10); this package is what turns the pipeline's internal
// counters into structure an operator can watch live on a long run.
package obs

import (
	"context"
	"io"
	"log/slog"
)

// Observer bundles the three observability channels. Any of them may be
// nil; a nil *Observer disables everything. Observers are safe for
// concurrent use by every pipeline worker and cluster node.
type Observer struct {
	log     *slog.Logger
	tracer  *Tracer
	metrics *Registry
}

// New builds an observer from the given channels, each of which may be
// nil.
func New(log *slog.Logger, tracer *Tracer, metrics *Registry) *Observer {
	return &Observer{log: log, tracer: tracer, metrics: metrics}
}

// Log returns the structured logger; never nil (a nil observer or nil
// logger yields a discard logger), so call sites never guard.
func (o *Observer) Log() *slog.Logger {
	if o == nil || o.log == nil {
		return nopLogger
	}
	return o.log
}

// Tracer returns the span tracer, possibly nil. All Tracer methods are
// nil-safe, so the chained form o.Tracer().Begin(...) always works.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the metrics registry, possibly nil. All Registry and
// instrument methods are nil-safe, so the chained form
// o.Metrics().Counter("x").Add(1) always works.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// nopHandler is a slog handler that is disabled for every level; used so
// Log() can return a non-nil logger with zero cost on the disabled path.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// NewLogger builds the pipeline-wide logger: text or JSON lines on w at
// the given level. The CLI maps -v to LevelDebug, default to LevelWarn
// (silent on a clean run), and -quiet to LevelError.
func NewLogger(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
