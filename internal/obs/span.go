// Package obs is DISTAL's zero-dependency observability layer: a
// context-carried span tracer whose finished trees export as Chrome
// trace_event JSON (span.go, trace.go), and a hand-rolled metrics registry
// with Prometheus text exposition (registry.go). Both are built for hot
// paths: a span on a disabled context costs one context lookup and no
// allocation, spans on an enabled context allocate from a per-trace slab,
// and every metric is a few atomic operations.
//
// The tracer threads through the whole compile→simulate→bind→run pipeline:
// internal/serve opens a Trace per HTTP request (keyed by the
// Distal-Request-Id header), Session.Compile, the legion executor, and the
// wire codec open child spans off whatever context reaches them, and the
// finished tree lands in a bounded Ring for GET /v1/trace/{id}.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// disabled is the global kill switch: when set, Start returns a nil span
// even on a context that carries a trace. It exists so the obs-overhead
// bench can compare the instrumented and uninstrumented paths under
// identical contexts; servers never set it.
var disabled atomic.Bool

// SetDisabled flips the global instrumentation kill switch. The zero state
// is enabled; tracing still requires a Trace on the context, so programs
// that never call NewTrace pay only the context lookup either way.
func SetDisabled(v bool) { disabled.Store(v) }

// Disabled reports the global kill switch.
func Disabled() bool { return disabled.Load() }

// Attr is one key/value annotation on a span. Values are strings: the
// trace_event args object renders them verbatim, and a fixed shape keeps
// span records allocation-predictable.
type Attr struct {
	Key, Val string
}

// Span is one timed region of a trace. A nil *Span is a valid no-op
// receiver — the disabled path of every instrumentation site — so callers
// never branch:
//
//	ctx, sp := obs.Start(ctx, "compile")
//	defer sp.End()
type Span struct {
	trace  *Trace
	parent int32 // index into trace slab; -1 for the root
	index  int32
	name   string
	start  time.Duration // offset from trace start
	dur    time.Duration // 0 until End
	attrs  []Attr
	ended  bool
}

type ctxKey struct{}

// WithSpan returns a context carrying sp as the current span; child spans
// started from the returned context nest under it.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, or nil when ctx carries none (or
// instrumentation is globally disabled).
func FromContext(ctx context.Context) *Span {
	if disabled.Load() {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child span under the context's current span and returns a
// context carrying it. On a context without a trace (or with instrumentation
// disabled) it returns ctx unchanged and a nil span, whose End and SetAttr
// are no-ops — the whole call is one context lookup.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.trace.newSpan(name, parent.index)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// StartChild opens a child span directly under sp, for call sites that hold
// a span but no context. A nil receiver returns nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil || disabled.Load() {
		return nil
	}
	return s.trace.newSpan(name, s.index)
}

// SetAttr annotates the span; no-op on nil.
func (s *Span) SetAttr(key, val string) {
	s.SetAttrs(Attr{Key: key, Val: val})
}

// SetAttrs annotates the span with several attributes under one lock; no-op
// on nil.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.trace.mu.Unlock()
}

// End closes the span; the second and later End calls are no-ops, so
// "defer sp.End()" composes with an explicit early End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.trace.begin) - s.start
	}
	s.trace.mu.Unlock()
}
