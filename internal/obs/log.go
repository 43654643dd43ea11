package obs

import (
	"context"
	"log/slog"
)

// Logger is the structured-logging handle, a thin nil-safe wrapper over
// log/slog. It follows the same discipline as the nil *Registry: the
// nil *Logger is the disabled state, every method no-ops on it, and the
// attr-building call sites fold to an inlined nil check with zero
// allocations (slog.LogAttrs copies the variadic attrs into the
// record's inline array, so the slice never escapes). Engines and the
// service therefore log unconditionally and let a nil handle switch the
// whole path off.
type Logger struct {
	s *slog.Logger
}

// NewLogger wraps a slog handler; a nil handler yields the disabled
// (nil) logger.
func NewLogger(h slog.Handler) *Logger {
	if h == nil {
		return nil
	}
	return &Logger{s: slog.New(h)}
}

// With returns a logger whose every record carries attrs (e.g. the job
// correlation ID and engine, attached once at job start). Nil-safe: the
// nil logger stays nil.
func (l *Logger) With(attrs ...slog.Attr) *Logger {
	if l == nil || len(attrs) == 0 {
		return l
	}
	return &Logger{s: slog.New(l.s.Handler().WithAttrs(attrs))}
}

// Info emits an info-level record.
func (l *Logger) Info(msg string, attrs ...slog.Attr) { l.emit(slog.LevelInfo, msg, attrs) }

// Warn emits a warn-level record.
func (l *Logger) Warn(msg string, attrs ...slog.Attr) { l.emit(slog.LevelWarn, msg, attrs) }

// Error emits an error-level record.
func (l *Logger) Error(msg string, attrs ...slog.Attr) { l.emit(slog.LevelError, msg, attrs) }

// emit funnels every level through the one nil check and LogAttrs call.
func (l *Logger) emit(level slog.Level, msg string, attrs []slog.Attr) {
	if l == nil {
		return
	}
	l.s.LogAttrs(context.Background(), level, msg, attrs...)
}

// jobIDKey is the context key for the job correlation ID.
type jobIDKey struct{}

// WithJobID returns a context carrying a job correlation ID. The
// service client sends it as the X-Csim-Job-Id header of every request
// made under the context, so the server admits the job under that ID:
// that is how the coordinator names each shard it submits to a worker.
func WithJobID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, jobIDKey{}, id)
}

// JobIDFrom extracts the job correlation ID from ctx ("" when absent).
func JobIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}
