package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStartWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "compile")
	if sp != nil {
		t.Fatalf("Start on bare context returned non-nil span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start on bare context returned a new context")
	}
	// The nil span's methods must all no-op.
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Attrs() != nil || sp.StartChild("x") != nil {
		t.Fatalf("nil span methods not inert")
	}
}

func TestDisabledSwitch(t *testing.T) {
	tr, ctx := NewTrace(context.Background(), "req1", "request")
	SetDisabled(true)
	defer SetDisabled(false)
	if _, sp := Start(ctx, "compile"); sp != nil {
		t.Fatalf("Start returned a span while disabled")
	}
	SetDisabled(false)
	if _, sp := Start(ctx, "compile"); sp == nil {
		t.Fatalf("Start returned nil span after re-enable")
	}
	tr.Finish()
}

func TestTraceTreeAndExport(t *testing.T) {
	tr, ctx := NewTrace(context.Background(), "abc123", "request")
	cctx, compile := Start(ctx, "compile")
	compile.SetAttr("cache", "miss")
	_, stage := Start(cctx, "stage")
	stage.End()
	compile.End()
	_, run := Start(ctx, "execute")
	run.End()
	tr.Finish()

	if tr.ID() != "abc123" {
		t.Fatalf("ID = %q", tr.ID())
	}
	if got := tr.Find("compile"); got == nil || got.Name() != "compile" {
		t.Fatalf("Find(compile) = %v", got)
	}
	phases := tr.PhaseMS()
	if _, ok := phases["compile"]; !ok {
		t.Errorf("PhaseMS missing compile: %v", phases)
	}
	if _, ok := phases["stage"]; ok {
		t.Errorf("PhaseMS includes grandchild stage: %v", phases)
	}

	var export struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	raw := tr.TraceEvent()
	if err := json.Unmarshal(raw, &export); err != nil {
		t.Fatalf("TraceEvent is not valid JSON: %v\n%s", err, raw)
	}
	if export.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", export.DisplayTimeUnit)
	}
	if export.OtherData["request_id"] != "abc123" {
		t.Errorf("otherData = %v", export.OtherData)
	}
	names := map[string]bool{}
	for _, ev := range export.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
		if ev.Name == "compile" && ev.Args["cache"] != "miss" {
			t.Errorf("compile args = %v", ev.Args)
		}
	}
	for _, want := range []string{"request", "compile", "stage", "execute"} {
		if !names[want] {
			t.Errorf("export missing span %q", want)
		}
	}
}

// TestAssignLanesConcurrentSiblings checks the viewer-lane layout: two
// overlapping siblings must land on different tids, sequential siblings on
// the same one, and children follow their parent's lane.
func TestAssignLanesConcurrentSiblings(t *testing.T) {
	mk := func(parent int32, start, dur int) *Span {
		ms := time.Millisecond
		return &Span{parent: parent, start: time.Duration(start) * ms, dur: time.Duration(dur) * ms}
	}
	spans := []*Span{
		mk(-1, 0, 100), // root
		mk(0, 10, 40),  // a
		mk(0, 20, 40),  // b overlaps a -> new lane
		mk(2, 25, 10),  // b's child follows b's lane
		mk(0, 60, 20),  // c after both -> back to lane 0
	}
	lanes := assignLanes(spans)
	if lanes[0] != 0 || lanes[1] != 0 {
		t.Errorf("root/a lanes = %v", lanes)
	}
	if lanes[2] == lanes[1] {
		t.Errorf("overlapping siblings share lane: %v", lanes)
	}
	if lanes[3] != lanes[2] {
		t.Errorf("child not on parent's lane: %v", lanes)
	}
	if lanes[4] != 0 {
		t.Errorf("sequential sibling not reusing lane 0: %v", lanes)
	}
}

// TestTraceConcurrentSpans opens spans from many goroutines at once — the
// legion real-task pool shape — and relies on -race for the verdict.
func TestTraceConcurrentSpans(t *testing.T) {
	tr, ctx := NewTrace(context.Background(), "conc", "request")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, sp := Start(ctx, "task")
				sp.SetAttr("worker", fmt.Sprint(i))
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	tr.Finish()
	if err := json.Unmarshal(tr.TraceEvent(), &map[string]any{}); err != nil {
		t.Fatalf("concurrent trace export invalid: %v", err)
	}
}

// TestTraceSpanCap: past the slab bound, Start hands back the parent so
// nesting survives, and the root records the drop count.
func TestTraceSpanCap(t *testing.T) {
	tr, ctx := NewTrace(context.Background(), "cap", "request")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := Start(ctx, "s")
		if sp == nil {
			t.Fatalf("span %d is nil", i)
		}
		sp.End()
	}
	tr.Finish()
	var dropped string
	for _, a := range tr.Find("request").Attrs() {
		if a.Key == "dropped_spans" {
			dropped = a.Val
		}
	}
	if dropped != "11" {
		t.Errorf("dropped_spans = %q, want 11", dropped)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(2)
	for _, id := range []string{"a", "b", "c"} {
		tr, _ := NewTrace(context.Background(), id, "request")
		tr.Finish()
		r.Add(tr)
	}
	if r.Get("a") != nil {
		t.Errorf("oldest trace not evicted")
	}
	if r.Get("b") == nil || r.Get("c") == nil {
		t.Errorf("recent traces missing")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	// Same-id replace keeps one slot.
	tr, _ := NewTrace(context.Background(), "c", "request")
	tr.Finish()
	r.Add(tr)
	if r.Len() != 2 || r.Get("c") != tr {
		t.Errorf("same-id add did not replace in place")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("ids %q %q", a, b)
	}
}
