package obs

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// spanChunk is the slab granularity: spans allocate in fixed-size chunks so
// *Span pointers stay stable while the trace grows (a plain append-backed
// slab would move them), and a typical request costs one chunk allocation
// total.
const spanChunk = 64

// maxSpansPerTrace bounds one trace's slab: a runaway instrumentation loop
// (a span per launch of a huge program) truncates instead of growing without
// bound. Truncated spans are dropped silently; the root records how many.
const maxSpansPerTrace = 4096

// Trace is one request's span tree: a root span plus everything started
// under it, allocated from chunked slabs owned by the trace. All mutation is
// guarded by one mutex — spans may be opened and closed from any goroutine
// (the legion real-task pool does) — and a finished trace is immutable by
// convention: Finish closes the root, and the Ring only hands out finished
// traces.
type Trace struct {
	id    string
	begin time.Time // wall clock at NewTrace; span offsets are monotonic since

	mu      sync.Mutex
	chunks  [][]Span
	spans   []*Span // creation order; spans[0] is the root
	dropped int
}

// NewTrace starts a trace and returns it with a context carrying its root
// span; id becomes the trace's key in a Ring. The caller must Finish the
// trace before exporting or publishing it.
func NewTrace(ctx context.Context, id, rootName string) (*Trace, context.Context) {
	t := &Trace{id: id, begin: time.Now(), spans: make([]*Span, 0, spanChunk)}
	root := t.newSpan(rootName, -1)
	return t, WithSpan(ctx, root)
}

// ID returns the trace's request id.
func (t *Trace) ID() string { return t.id }

// Finish closes the root span (and any span left open, at the root's end
// time) and stamps the drop count. Call exactly once, after the request's
// last instrumented work.
func (t *Trace) Finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := time.Since(t.begin)
	for _, sp := range t.spans {
		if !sp.ended {
			sp.ended = true
			sp.dur = end - sp.start
		}
	}
	if t.dropped > 0 {
		root := t.spans[0]
		root.attrs = append(root.attrs, Attr{Key: "dropped_spans", Val: fmt.Sprint(t.dropped)})
	}
}

// newSpan allocates a span from the trace's slab. parent is the parent's
// index, -1 for the root.
func (t *Trace) newSpan(name string, parent int32) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		// A dropped span must still nest its children somewhere: hand back
		// the parent so the subtree collapses into it instead of vanishing
		// from the context chain.
		t.dropped++
		if parent >= 0 {
			return t.spans[parent]
		}
		return t.spans[0]
	}
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == cap(t.chunks[n-1]) {
		t.chunks = append(t.chunks, make([]Span, 0, spanChunk))
	}
	chunk := &t.chunks[len(t.chunks)-1]
	*chunk = append(*chunk, Span{
		trace:  t,
		parent: parent,
		index:  int32(len(t.spans)),
		name:   name,
		start:  time.Since(t.begin),
	})
	sp := &(*chunk)[len(*chunk)-1]
	t.spans = append(t.spans, sp)
	return sp
}

// PhaseMS returns the root's direct children as name -> milliseconds,
// summing repeated names (a chain run opens one "run-stage" per stage). It
// is the access log's phase breakdown.
func (t *Trace) PhaseMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	phases := map[string]float64{}
	for _, sp := range t.spans[1:] {
		if sp.parent == 0 {
			phases[sp.name] += float64(sp.dur) / float64(time.Millisecond)
		}
	}
	return phases
}

// Find returns the first span with the given name in creation order, or nil.
// It exists for tests and for callers that want one phase's duration.
func (t *Trace) Find(name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// TraceEvent renders the finished trace as Chrome trace_event JSON — the
// format chrome://tracing and Perfetto open directly. Every span becomes one
// complete ("X") event; ts/dur are microseconds relative to the trace
// start. Concurrent sibling spans (the legion worker pool) are laid out on
// separate tid lanes so the viewer never sees improperly-nested intervals:
// a span inherits its parent's lane unless it overlaps an earlier sibling
// already placed there, in which case it opens the next free lane.
func (t *Trace) TraceEvent() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	lanes := assignLanes(t.spans)

	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, sp := range t.spans {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":%s,"cat":"distal","ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d`,
			jsonString(sp.name), sp.start.Microseconds(), sp.dur.Microseconds(), lanes[i]+1)
		if len(sp.attrs) > 0 {
			b.WriteString(`,"args":{`)
			for j, a := range sp.attrs {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(jsonString(a.Key))
				b.WriteByte(':')
				b.WriteString(jsonString(a.Val))
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(&b, `],"otherData":{"request_id":%s}}`, jsonString(t.id))
	return b.Bytes()
}

// assignLanes lays spans out on viewer lanes (trace_event tids). Trace
// viewers nest "X" events on one tid only when their intervals nest properly,
// so concurrent siblings must not share a lane: a span takes its parent's
// lane unless an earlier sibling subtree placed there is still open at its
// start, in which case it moves to the next lane free of siblings. The table
// is keyed by (parent, lane) — a parent's own interval always covers its
// children, so only sibling subtrees count as occupancy.
func assignLanes(spans []*Span) []int {
	lanes := make([]int, len(spans))
	type plKey struct {
		parent int32
		lane   int
	}
	sibEnd := map[plKey]time.Duration{}
	for i, sp := range spans {
		lane := 0
		if sp.parent >= 0 {
			lane = lanes[sp.parent]
		}
		for sibEnd[plKey{sp.parent, lane}] > sp.start {
			lane++
		}
		lanes[i] = lane
		k := plKey{sp.parent, lane}
		if end := sp.start + sp.dur; end > sibEnd[k] {
			sibEnd[k] = end
		}
	}
	return lanes
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Ring is a bounded buffer of finished traces keyed by request id: the
// store behind GET /v1/trace/{id}. Adding beyond capacity evicts the oldest.
type Ring struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*Trace
	order []string
}

// NewRing builds a ring holding up to capacity finished traces (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{cap: capacity, m: make(map[string]*Trace, capacity)}
}

// Add publishes a finished trace, evicting the oldest beyond capacity. A
// trace re-using a live id replaces the old one in place.
func (r *Ring) Add(t *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[t.id]; ok {
		r.m[t.id] = t
		return
	}
	r.m[t.id] = t
	r.order = append(r.order, t.id)
	for len(r.order) > r.cap {
		delete(r.m, r.order[0])
		r.order = r.order[1:]
	}
}

// Get returns the trace for id, or nil when it was never added or has been
// evicted.
func (r *Ring) Get(id string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

// Len returns the number of retained traces.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// NewRequestID returns a fresh 16-hex-digit request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to a
		// time-derived id rather than panicking in a logging path.
		return fmt.Sprintf("t%015x", time.Now().UnixNano()&0xffffffffffffff)
	}
	return hex.EncodeToString(b[:])
}
