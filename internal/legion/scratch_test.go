package legion_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// cloneResult deep-copies a Result, its trace's points and rects included.
func cloneResult(r *legion.Result) *legion.Result {
	c := *r
	c.Trace = make([]legion.CopyRecord, len(r.Trace))
	for i, rec := range r.Trace {
		rec.Point = slices.Clone(rec.Point)
		rec.Rect = tensor.NewRect(rec.Rect.Lo, rec.Rect.Hi)
		c.Trace[i] = rec
	}
	return &c
}

// TestPooledScratchNotAliased: a walk's Result, its Trace and its Tape must
// not point into the pooled walk scratch, which later walks reuse. Program A
// is analysed with Trace and Real on; its Result is deep-copied and its tape
// executed once. Other programs — single-stage walks of other shapes and a
// two-stage walk that adopts a region — then run on this goroutine and on
// concurrent ones, drawing scratch from the same pool. A's Result and trace
// must be unchanged, and executing A's tape again must reproduce its output
// bit for bit.
func TestPooledScratchNotAliased(t *testing.T) {
	ctx := context.Background()
	// Johnson's k-distributed reduction flushes accumulators piecewise into
	// the owners, so A's trace holds rects cut from scratch owner pieces.
	inA, err := algorithms.Matmul(algorithms.Johnson, algorithms.MatmulConfig{N: 64, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	progA, err := core.Compile(inA)
	if err != nil {
		t.Fatal(err)
	}
	opt := legion.Options{Params: sim.LassenCPU(), Real: true, Trace: true}
	tape, err := legion.Analyse(ctx, []legion.Stage{{Prog: progA}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := tape.Result()
	if len(res.Trace) == 0 {
		t.Fatal("program A records no copies")
	}
	want := cloneResult(res)
	execute := func() []float64 {
		data := algorithms.RandomData(inA)
		if err := tape.Execute(ctx, []map[string]*tensor.Dense{data}, 2); err != nil {
			t.Fatal(err)
		}
		return data["A"].Data()
	}
	out := execute()

	// The first has A's machine and regions but other bounds, so it fills
	// the same scratch with other values.
	others := []*legion.Program{
		compileMatmul(t, algorithms.Johnson, algorithms.MatmulConfig{N: 96, Procs: 8}),
		compileMatmul(t, algorithms.Cannon, algorithms.MatmulConfig{N: 96, Procs: 9}),
		compileMatmul(t, algorithms.Johnson, algorithms.MatmulConfig{N: 96, Procs: 27}),
		compileMatmul(t, algorithms.SUMMA, algorithms.MatmulConfig{N: 128, Procs: 64, ChunkSize: 8}),
	}
	// Two compiles of A's input, on one machine: the second stage adopts
	// the first's B.
	progB, err := core.Compile(inA)
	if err != nil {
		t.Fatal(err)
	}
	stages := []legion.Stage{{Prog: progA}, {Prog: progB, Inherit: []legion.Handoff{{From: 0, Region: "B"}}}}
	walkOthers := func() error {
		for _, p := range others {
			if _, err := legion.Run(p, legion.Options{Params: sim.LassenCPU(), Trace: true}); err != nil {
				return err
			}
		}
		_, err := legion.RunStages(ctx, stages, legion.Options{Params: sim.LassenCPU(), Trace: true})
		return err
	}
	if err := walkOthers(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if errs[g] = walkOthers(); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := tape.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("program A's result changed after later walks:\n got %+v\nwant %+v", *got, *want)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("program A's returned result changed after later walks")
	}
	if again := execute(); !slices.Equal(again, out) {
		t.Fatal("executing program A's tape after later walks gives a different output")
	}
}
