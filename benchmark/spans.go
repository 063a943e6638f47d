package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from outside
// the program. The recorder is the benchmark's own on purpose: internal/obs
// overhead is one of the things measured, so it cannot also be the ruler.
type span struct {
	Name   string
	Op     int // operation id: spans of one op share it
	Parent int // index into recorder.spans, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used as
// the parent of child spans.
func (r *recorder) begin(name string, op, parent int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// call records f as one span.
func (r *recorder) call(name string, op, parent int, f func() error) error {
	id := r.begin(name, op, parent)
	err := f()
	r.end(id)
	return err
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children (parallel parts) are
// merged first, so time covered twice is subtracted once.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) || s.End < s.Start {
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi time.Duration
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps), each with its self time, on a few tid lanes
// by operation id so that concurrent clients do not overlap on one row.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	self := selfTimes(r.spans)
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Op % 8, Args: map[string]int{"op": s.Op, "parent": s.Parent, "self_us": int(self[i].Microseconds())},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
