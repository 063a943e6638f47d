package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: msd(0), End: msd(100)},
		// Nested: a child with its own child.
		{Name: "a", Parent: 0, Start: msd(10), End: msd(40)},
		{Name: "a1", Parent: 1, Start: msd(15), End: msd(25)},
		// Overlapping siblings (parallel parts): 50..80 is covered once.
		{Name: "b", Parent: 0, Start: msd(50), End: msd(70)},
		{Name: "c", Parent: 0, Start: msd(60), End: msd(80)},
		// A child sticking out of its parent only counts where it overlaps.
		{Name: "d", Parent: 0, Start: msd(95), End: msd(120)},
		// An unfinished span has no self time and covers nothing.
		{Name: "open", Parent: 0, Start: msd(85), End: -1},
	}
	want := []time.Duration{
		msd(100 - 30 - 30 - 5), // root: minus a, minus b∪c, minus d∩root
		msd(20),                // a: 30 minus a1
		msd(10),
		msd(20),
		msd(20),
		msd(25),
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderChromeTrace(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", 7, -1)
	if err := r.call("child", 7, root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("trace events = %+v", doc.TraceEvents)
	}
	if op := doc.TraceEvents[0]; op.Name != "op" || float64(op.Args["self_us"]) > op.Dur {
		t.Errorf("op event = %+v, want its self time within its duration", op)
	}
}
