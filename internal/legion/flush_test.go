package legion

import (
	"context"
	"strings"
	"testing"

	"distal/internal/distnot"
	"distal/internal/machine"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// TestFlushFanInScatter exercises the owner-piece index on a reduction
// fan-in: four processors each produce a full-rect partial sum of A, whose
// owner instances are block-distributed across all four. The flush must
// tree-merge the four accumulators and then scatter exactly one piece to
// every non-local owner, and the Real-mode contents must equal the sum of
// every partial.
func TestFlushFanInScatter(t *testing.T) {
	const n, procs = 8, 4
	m := flatMachine(procs)
	place := distnot.NewPlacement(distnot.MustParse("x->x"))
	a := NewRegion("A", []int{n}, place)
	ta := tensor.New("A", n)
	full := tensor.FullRect([]int{n})
	launch := numbered(&Launch{
		Name:   "partial",
		Domain: machine.NewGrid(procs),
		Run: func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				ctx.WriteAdd("A", float64(ctx.Point[0]+1), i)
			}
		},
	}, func(pt []int) ([]Req, Cost) {
		return []Req{{Region: a, Rect: full, Priv: ReduceSum}}, Cost{Flops: n}
	})
	prog := &Program{Name: "fanin", Machine: m, Regions: []*Region{a}, Launches: []*Launch{launch}}
	res, err := Run(prog, Options{Params: testParams(), Real: true, Trace: true, Batch: []map[string]*tensor.Dense{{"A": ta}}})
	if err != nil {
		t.Fatal(err)
	}
	// Every coordinate accumulates 1+2+3+4 from the four partials.
	for i := 0; i < n; i++ {
		if ta.At(i) != 10 {
			t.Fatalf("A(%d) = %v, want 10", i, ta.At(i))
		}
	}
	// Each leaf owns a quarter of A; no accumulator is in place (none
	// covers the full rect), so the binary tree merges 4 accumulators with
	// 3 copies and the survivor (on leaf 0) scatters 3 remote pieces.
	if res.Copies != 6 {
		t.Fatalf("copies = %d, want 3 merge + 3 scatter", res.Copies)
	}
	// The scatter must send exactly the owned piece to each remote owner.
	seen := map[int]tensor.Rect{}
	for _, c := range res.Trace {
		if c.Launch == "flush" && c.Src == 0 && c.Dst != 0 {
			if _, dup := seen[c.Dst]; dup {
				t.Fatalf("owner %d received two pieces", c.Dst)
			}
			seen[c.Dst] = c.Rect
		}
	}
	for leaf := 1; leaf < procs; leaf++ {
		lo, hi := tensor.BlockRange(n, procs, leaf)
		want := tensor.NewRect([]int{lo}, []int{hi})
		got, ok := seen[leaf]
		if !ok {
			t.Fatalf("owner %d received no piece; trace %v", leaf, res.Trace)
		}
		if !got.Equal(want) {
			t.Fatalf("owner %d received %v, want %v", leaf, got, want)
		}
	}
}

// TestSourceSelectionCostClass pins ensureLocal's cheapest-source choice
// across cost classes: with B owned in node 0 and a fresh transient replica
// in node 1, a reader in node 1 must fetch over the fast intra-node link
// from the replica, not from the remote owner — and must fall back to the
// owner under the OwnerOnly ablation.
func TestSourceSelectionCostClass(t *testing.T) {
	const n = 8
	m := machine.New(machine.NewGrid(4), machine.SysMem, machine.CPU).WithProcsPerNode(2)
	params := sim.Params{
		PeakFlops:    100,
		MemBandwidth: 1e18,
		MemCapacity:  1 << 40,
		IntraBW:      100, // intra-node is 10x faster than the network
		InterBW:      10,
	}
	// B lives entirely on leaf 0 (node 0).
	bPlace := distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
	b := NewRegion("B", []int{n}, bPlace)
	a := NewRegion("A", []int{4}, distnot.NewPlacement(distnot.MustParse("x->x")))
	full := tensor.FullRect([]int{n})
	mk := func(name string, dst int) *Launch {
		return numbered(&Launch{
			Name:   name,
			Domain: machine.NewGrid(1),
			Leaf:   []int32{int32(dst)},
		}, func(pt []int) ([]Req, Cost) {
			return []Req{
				{Region: a, Rect: tensor.NewRect([]int{dst}, []int{dst + 1}), Priv: WriteDiscard},
				{Region: b, Rect: full, Priv: ReadOnly},
			}, Cost{Flops: 1}
		})
	}
	// t1 pulls B into node 1 (leaf 3); t2 reads it from node 1 (leaf 2).
	prog := &Program{Name: "class", Machine: m, Regions: []*Region{a, b},
		Launches: []*Launch{mk("t1", 3), mk("t2", 2)}}

	res, err := Run(prog, Options{Params: params, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %v", res.Trace)
	}
	if res.Trace[0].Src != 0 || res.Trace[0].Dst != 3 {
		t.Fatalf("first copy = %+v, want owner 0 -> leaf 3", res.Trace[0])
	}
	if res.Trace[1].Src != 3 || res.Trace[1].Dst != 2 {
		t.Fatalf("second copy = %+v, want intra-node replica 3 -> leaf 2", res.Trace[1])
	}

	resOwner, err := Run(prog, Options{Params: params, Trace: true, OwnerOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if resOwner.Trace[1].Src != 0 {
		t.Fatalf("OwnerOnly second copy src = %d, want owner 0", resOwner.Trace[1].Src)
	}
	if res.Time >= resOwner.Time {
		t.Fatalf("intra-node source should be faster: %v vs %v", res.Time, resOwner.Time)
	}
}

// TestAdoptedTransientSource: a region adopted read-only by a later stage
// keeps its live transient replicas as copy sources, although the adopting
// program numbers its rects differently. On TestSourceSelectionCostClass's
// machine, stage 0 pulls B into leaf 3 (node 1); stage 1's first launch
// reads another rect of B, so B's full rect takes a different id there, and
// then leaf 2 reads all of B — it must fetch from leaf 3's intra-node
// replica, not from owner 0 on the other node.
func TestAdoptedTransientSource(t *testing.T) {
	const n = 8
	m := machine.New(machine.NewGrid(4), machine.SysMem, machine.CPU).WithProcsPerNode(2)
	params := sim.Params{
		PeakFlops:    100,
		MemBandwidth: 1e18,
		MemCapacity:  1 << 40,
		IntraBW:      100,
		InterBW:      10,
	}
	bPlace := distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
	aPlace := distnot.NewPlacement(distnot.MustParse("x->x"))
	full := tensor.FullRect([]int{n})
	a0, b0 := NewRegion("A", []int{4}, aPlace), NewRegion("B", []int{n}, bPlace)
	pull := &Program{Name: "pull", Machine: m, Regions: []*Region{a0, b0},
		Launches: []*Launch{readLaunch("t1", a0, b0, 3, full)}}
	a1, b1 := NewRegion("A", []int{4}, aPlace), NewRegion("B", []int{n}, bPlace)
	read := &Program{Name: "read", Machine: m, Regions: []*Region{a1, b1},
		Launches: []*Launch{
			readLaunch("t0", a1, b1, 0, tensor.NewRect([]int{0}, []int{4})), // local to owner 0
			readLaunch("t2", a1, b1, 2, full),
		}}
	if !b0.Rects[0].Equal(full) || b1.Rects[0].Equal(full) {
		t.Fatalf("B's full rect should take different ids: stage 0 %v, stage 1 %v", b0.Rects, b1.Rects)
	}
	res, err := RunStages(context.Background(), []Stage{
		{Prog: pull},
		{Prog: read, Inherit: []Handoff{{From: 0, Region: "B"}}},
	}, Options{Params: params, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %v, want the pull and one read", res.Trace)
	}
	if c := res.Trace[1]; c.Src != 3 || c.Dst != 2 {
		t.Fatalf("stage 1 copy = %+v, want intra-node replica 3 -> leaf 2", c)
	}
}

// TestAdoptIntoTwoRegionsRejected: a region state is indexed by one region's
// rect ids at a time, so a stage adopting one producer region into two of
// its regions is an error rather than a walk with mixed ids.
func TestAdoptIntoTwoRegionsRejected(t *testing.T) {
	m := flatMachine(2)
	place := distnot.NewPlacement(distnot.MustParse("x->x"))
	full := tensor.FullRect([]int{4})
	a0, b0 := NewRegion("A", []int{2}, place), NewRegion("B", []int{4}, place)
	p0 := &Program{Name: "p0", Machine: m, Regions: []*Region{a0, b0},
		Launches: []*Launch{readLaunch("t0", a0, b0, 0, full)}}
	a1, b1, c1 := NewRegion("A", []int{2}, place), NewRegion("B", []int{4}, place), NewRegion("C", []int{4}, place)
	p1 := &Program{Name: "p1", Machine: m, Regions: []*Region{a1, b1, c1},
		Launches: []*Launch{readLaunch("t1", a1, b1, 1, full), readLaunch("t2", a1, c1, 1, full)}}
	_, err := RunStages(context.Background(), []Stage{
		{Prog: p0},
		{Prog: p1, Inherit: []Handoff{{From: 0, Region: "B"}, {From: 0, Region: "B", To: "C"}}},
	}, Options{Params: testParams()})
	if err == nil || !strings.Contains(err.Error(), "two regions") {
		t.Fatalf("err = %v, want a two-regions adoption error", err)
	}
}
