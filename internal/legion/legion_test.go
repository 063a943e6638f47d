package legion

import (
	"fmt"
	"strings"
	"testing"

	"distal/internal/distnot"
	"distal/internal/machine"
	"distal/internal/sim"
	"distal/internal/tensor"
)

func flatMachine(n int) *machine.Machine {
	return machine.New(machine.NewGrid(n), machine.SysMem, machine.CPU)
}

// numbered gives a launch the requirements and cost reqs computes per
// point, as the compiler does: it numbers every rect into its region's table
// (a region shared with launches numbered earlier keeps their ids), stores
// the ids point-major on the launch, and appends each point's cost to its
// Cost table. Every point must require the same regions with the same
// privileges.
func numbered(l *Launch, reqs func(pt []int) ([]Req, Cost)) *Launch {
	ids := map[*Region]map[tensor.RectKey]int32{}
	for i := range l.Domain.Size() {
		qs, cost := reqs(l.Domain.Delinearize(i))
		l.Cost = append(l.Cost, cost)
		if i == 0 {
			for _, q := range qs {
				l.Regions = append(l.Regions, q.Region)
				l.Privs = append(l.Privs, q.Priv)
			}
		}
		if len(qs) != len(l.Regions) {
			panic(fmt.Sprintf("launch %s: point %d has %d requirements, point 0 has %d", l.Name, i, len(qs), len(l.Regions)))
		}
		for t, q := range qs {
			if q.Region != l.Regions[t] || q.Priv != l.Privs[t] {
				panic(fmt.Sprintf("launch %s: point %d requirement %d is %v, point 0's is on %s %v", l.Name, i, t, q, l.Regions[t].Name, l.Privs[t]))
			}
			tab := ids[q.Region]
			if tab == nil {
				tab = map[tensor.RectKey]int32{}
				for id, r := range q.Region.Rects {
					tab[r.Key()] = int32(id)
				}
				ids[q.Region] = tab
			}
			id, ok := tab[q.Rect.Key()]
			if !ok {
				id = int32(len(q.Region.Rects))
				q.Region.Rects = append(q.Region.Rects, q.Rect)
				tab[q.Rect.Key()] = id
			}
			l.IDs = append(l.IDs, id)
		}
	}
	return l
}

func testParams() sim.Params {
	return sim.Params{
		PeakFlops:    100,
		MemBandwidth: 1e18,
		MemCapacity:  1 << 40,
		IntraBW:      10,
		IntraLatency: 0,
		InterBW:      10,
		InterLatency: 0,
	}
}

// vectorAddProgram builds A(i) = B(i) + C(i) with all vectors tiled over a
// 1-D machine: an owner-computes program with no communication.
func vectorAddProgram(n, procs int) (*Program, *tensor.Dense, *tensor.Dense, *tensor.Dense) {
	m := flatMachine(procs)
	place := distnot.NewPlacement(distnot.MustParse("x->x"))
	a := NewRegion("A", []int{n}, place)
	b := NewRegion("B", []int{n}, place)
	c := NewRegion("C", []int{n}, place)
	ta, tb, tc := tensor.New("A", n), tensor.New("B", n), tensor.New("C", n)
	tb.FillRandom(1)
	tc.FillRandom(2)
	rectOf := func(p int) tensor.Rect {
		lo, hi := tensor.BlockRange(n, procs, p)
		return tensor.NewRect([]int{lo}, []int{hi})
	}
	launch := numbered(&Launch{
		Name:   "add",
		Domain: machine.NewGrid(procs),
		Run: func(ctx *Ctx) {
			rectOf(ctx.Point[0]).Points(func(p []int) {
				ctx.WriteSet("A", ctx.ReadAt("B", p...)+ctx.ReadAt("C", p...), p...)
			})
		},
	}, func(pt []int) ([]Req, Cost) {
		r := rectOf(pt[0])
		return []Req{
			{Region: a, Rect: r, Priv: WriteDiscard},
			{Region: b, Rect: r, Priv: ReadOnly},
			{Region: c, Rect: r, Priv: ReadOnly},
		}, Cost{Flops: float64(r.Volume())}
	})
	return &Program{Name: "vadd", Machine: m, Regions: []*Region{a, b, c}, Launches: []*Launch{launch}}, ta, tb, tc
}

func TestOwnerComputesNoCommunication(t *testing.T) {
	prog, ta, tb, tc := vectorAddProgram(12, 4)
	res, err := Run(prog, Options{Params: testParams(), Real: true, Batch: []map[string]*tensor.Dense{{"A": ta, "B": tb, "C": tc}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies != 0 || res.InterBytes != 0 {
		t.Fatalf("owner-computes should not communicate: copies=%d bytes=%d", res.Copies, res.InterBytes)
	}
	for i := 0; i < 12; i++ {
		want := tb.At(i) + tc.At(i)
		if d := ta.At(i) - want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("A(%d) = %v, want %v", i, ta.At(i), want)
		}
	}
	// 4 procs x 3 flops each, perfectly parallel at 100 flop/s.
	if res.Time != 0.03 {
		t.Fatalf("time = %v, want 0.03", res.Time)
	}
}

// TestCommunicationWhenNotOwner: compute A on proc 0 only; pieces of B must
// be fetched from their owners.
func TestCommunicationWhenNotOwner(t *testing.T) {
	n, procs := 8, 4
	m := flatMachine(procs)
	place := distnot.NewPlacement(distnot.MustParse("x->x"))
	b := NewRegion("B", []int{n}, place)
	a := NewRegion("A", []int{1}, nil) // scalar-ish output on leaf 0
	ta, tb := tensor.New("A", 1), tensor.New("B", n)
	tb.FillRandom(3)
	launch := numbered(&Launch{
		Name:   "sum",
		Domain: machine.NewGrid(1),
		Run: func(ctx *Ctx) {
			s := 0.0
			for i := 0; i < n; i++ {
				s += ctx.ReadAt("B", i)
			}
			ctx.WriteAdd("A", s, 0)
		},
	}, func(pt []int) ([]Req, Cost) {
		return []Req{
			{Region: a, Rect: tensor.FullRect([]int{1}), Priv: ReduceSum},
			{Region: b, Rect: tensor.FullRect([]int{n}), Priv: ReadOnly},
		}, Cost{Flops: float64(n)}
	})
	prog := &Program{Name: "sum", Machine: m, Regions: []*Region{a, b}, Launches: []*Launch{launch}}
	res, err := Run(prog, Options{Params: testParams(), Real: true, Trace: true, Batch: []map[string]*tensor.Dense{{"A": ta, "B": tb}}})
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0 owns B[0:2]; pieces from procs 1..3 must be gathered.
	if res.Copies != 3 {
		t.Fatalf("copies = %d, want 3", res.Copies)
	}
	if got, want := ta.At(0), tb.Sum(); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestReductionFlush: two tasks on different procs reduce into a tile owned
// by proc 0.
func TestReductionFlush(t *testing.T) {
	procs := 2
	m := flatMachine(procs)
	// A lives entirely on proc 0.
	aPlace := distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
	a := NewRegion("A", []int{4}, aPlace)
	ta := tensor.New("A", 4)
	launch := numbered(&Launch{
		Name:   "partial",
		Domain: machine.NewGrid(procs),
		Run: func(ctx *Ctx) {
			for i := 0; i < 4; i++ {
				ctx.WriteAdd("A", float64(ctx.Point[0]+1), i)
			}
		},
	}, func(pt []int) ([]Req, Cost) {
		return []Req{{Region: a, Rect: tensor.FullRect([]int{4}), Priv: ReduceSum}}, Cost{Flops: 4}
	})
	prog := &Program{Name: "red", Machine: m, Regions: []*Region{a}, Launches: []*Launch{launch}}
	res, err := Run(prog, Options{Params: testParams(), Real: true, Batch: []map[string]*tensor.Dense{{"A": ta}}})
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0 writes in place (owner); proc 1 reduces through an accumulator
	// flushed with one copy.
	if res.Copies != 1 {
		t.Fatalf("copies = %d, want 1 reduction copy", res.Copies)
	}
	for i := 0; i < 4; i++ {
		if ta.At(i) != 3 { // 1 (proc0) + 2 (proc1)
			t.Fatalf("A(%d) = %v, want 3", i, ta.At(i))
		}
	}
}

// TestReductionFlushManyLeaves: two rounds of points on twelve procs reduce
// into one tile owned by proc 0, so the second round finds each proc's
// accumulator again — past the chain's scanned prefix (accScan) through
// the hash. Proc 0 writes in place and the eleven others hold one
// accumulator each, which a binary tree merges in ten copies and one more
// lands on the owner: a second accumulator for any proc would add copies.
func TestReductionFlushManyLeaves(t *testing.T) {
	const procs = 12
	aPlace := distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
	a := NewRegion("A", []int{4}, aPlace)
	ta := tensor.New("A", 4)
	launch := numbered(&Launch{
		Name:   "partial",
		Domain: machine.NewGrid(2 * procs),
		Run: func(ctx *Ctx) {
			for i := 0; i < 4; i++ {
				ctx.WriteAdd("A", 1, i)
			}
		},
	}, func(pt []int) ([]Req, Cost) {
		return []Req{{Region: a, Rect: tensor.FullRect([]int{4}), Priv: ReduceSum}}, Cost{Flops: 4}
	})
	prog := &Program{Name: "red", Machine: flatMachine(procs), Regions: []*Region{a}, Launches: []*Launch{launch}}
	res, err := Run(prog, Options{Params: testParams(), Real: true, Batch: []map[string]*tensor.Dense{{"A": ta}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies != procs-1 {
		t.Fatalf("copies = %d, want %d: one accumulator per proc off the owner", res.Copies, procs-1)
	}
	for i := 0; i < 4; i++ {
		if ta.At(i) != 2*procs {
			t.Fatalf("A(%d) = %v, want %d", i, ta.At(i), 2*procs)
		}
	}
}

// TestNearestSourceRelay: with three procs, two consumers of the same remote
// piece; the second consumer should be able to fetch from the first (relay)
// rather than the owner when that is cheaper.
func TestNearestSourceRelay(t *testing.T) {
	n, procs := 4, 3
	m := flatMachine(procs)
	// B lives entirely on proc 0.
	bPlace := distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
	b := NewRegion("B", []int{n}, bPlace)
	a := NewRegion("A", []int{procs}, distnot.NewPlacement(distnot.MustParse("x->x")))
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
	prog := &Program{Name: "relay", Machine: m, Regions: []*Region{a, b},
		Launches: []*Launch{mk("t1", 1), mk("t2", 2)}}
	res, err := Run(prog, Options{Params: testParams(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %v", res.Trace)
	}
	if res.Trace[0].Src != 0 || res.Trace[0].Dst != 1 {
		t.Fatalf("first copy = %+v", res.Trace[0])
	}
	// Proc 0's out-port is busy until the first copy ends; fetching from
	// proc 1's fresh instance finishes no later, so the relay must pick a
	// source that gives the earliest completion (either is fine here), but
	// with OwnerOnly it must be proc 0.
	resOwner, err := Run(prog, Options{Params: testParams(), Trace: true, OwnerOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if resOwner.Trace[1].Src != 0 {
		t.Fatalf("OwnerOnly second copy src = %d, want 0", resOwner.Trace[1].Src)
	}
	if res.Time > resOwner.Time {
		t.Fatalf("nearest-source should not be slower: %v vs %v", res.Time, resOwner.Time)
	}
}

// TestOverlapVsSynchronous: communication should hide under computation in
// the default mode and serialize in Synchronous mode.
func TestOverlapVsSynchronous(t *testing.T) {
	n, procs := 8, 2
	m := flatMachine(procs)
	bPlace := distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
	b := NewRegion("B", []int{n}, bPlace)
	a := NewRegion("A", []int{2}, distnot.NewPlacement(distnot.MustParse("x->x")))
	// Two sequential launches on proc 1, each reading a different chunk of B
	// and computing for a long time: chunk 2's copy can overlap chunk 1's
	// compute only in async mode.
	mk := func(name string, lo int) *Launch {
		return numbered(&Launch{
			Name:   name,
			Domain: machine.NewGrid(1),
			Leaf:   []int32{1},
		}, func(pt []int) ([]Req, Cost) {
			return []Req{
				{Region: a, Rect: tensor.NewRect([]int{1}, []int{2}), Priv: ReduceSum},
				{Region: b, Rect: tensor.NewRect([]int{lo}, []int{lo + 4}), Priv: ReadOnly},
			}, Cost{Flops: 1000}
		})
	}
	prog := &Program{Name: "ovl", Machine: m, Regions: []*Region{a, b},
		Launches: []*Launch{mk("s0", 0), mk("s1", 4)}}
	async, err := Run(prog, Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	syncRes, err := Run(prog, Options{Params: testParams(), Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	if async.Time >= syncRes.Time {
		t.Fatalf("overlap should be faster: async %v vs sync %v", async.Time, syncRes.Time)
	}
}

// TestTransientEviction: the per-leaf window keeps memory bounded.
func TestTransientEviction(t *testing.T) {
	n, chunks := 64, 8
	m := flatMachine(2)
	bPlace := distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
	b := NewRegion("B", []int{n}, bPlace)
	a := NewRegion("A", []int{2}, distnot.NewPlacement(distnot.MustParse("x->x")))
	var launches []*Launch
	for s := 0; s < chunks; s++ {
		lo := s * (n / chunks)
		launches = append(launches, numbered(&Launch{
			Name:   "step",
			Domain: machine.NewGrid(1),
			Leaf:   []int32{1},
		}, func(pt []int) ([]Req, Cost) {
			return []Req{
				{Region: a, Rect: tensor.NewRect([]int{1}, []int{2}), Priv: ReduceSum},
				{Region: b, Rect: tensor.NewRect([]int{lo}, []int{lo + n/chunks}), Priv: ReadOnly},
			}, Cost{Flops: 1}
		}))
	}
	prog := &Program{Name: "evict", Machine: m, Regions: []*Region{a, b}, Launches: launches}
	res, err := Run(prog, Options{Params: testParams(), TransientWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf 0 holds all of B persistently (512B) plus its A piece (8B).
	// Leaf 1's transient footprint (8B A + 8B accumulator + 2 chunks of 64B)
	// must stay below that thanks to eviction; without the window it would
	// reach 8+8+8*64 = 528 and dominate.
	if res.PeakMemBytes > 520 {
		t.Fatalf("peak mem = %d, want <= 520", res.PeakMemBytes)
	}
	if res.Copies != int64(chunks) {
		t.Fatalf("copies = %d, want %d", res.Copies, chunks)
	}
}

// TestOOMDetection: a tiny memory capacity must flag OOM.
func TestOOMDetection(t *testing.T) {
	prog, _, _, _ := vectorAddProgram(1024, 2)
	p := testParams()
	p.MemCapacity = 100 // bytes; each proc holds 3 x 512 x 8 bytes
	res, err := Run(prog, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Fatal("expected OOM")
	}
}

func TestRealRequiresBoundData(t *testing.T) {
	m := flatMachine(1)
	a := NewRegion("A", []int{4}, nil)
	prog := &Program{Name: "x", Machine: m, Regions: []*Region{a}}
	if _, err := Run(prog, Options{Params: testParams(), Real: true}); err == nil {
		t.Fatal("expected error for unbound region in Real mode")
	}
}

func TestNegativeTransientWindow(t *testing.T) {
	prog, _, _, _ := vectorAddProgram(8, 2)
	if _, err := Run(prog, Options{Params: testParams(), TransientWindow: -1}); err == nil {
		t.Fatal("expected an error for a negative transient window")
	}
}

func TestGFlopsPerSec(t *testing.T) {
	r := &Result{Time: 2, Flops: 4e9}
	if r.GFlopsPerSec() != 2 {
		t.Fatalf("GFlopsPerSec = %v, want 2", r.GFlopsPerSec())
	}
	if (&Result{}).GFlopsPerSec() != 0 {
		t.Fatal("zero-time result should report 0")
	}
}

func TestRegionOwnerRectNilPlacement(t *testing.T) {
	m := flatMachine(2)
	r := NewRegion("R", []int{4}, nil)
	rect := tensor.FullRect(r.Shape)
	if r.ownerRectInto(rect, m, []int{1}) {
		t.Fatal("nil placement should live only on leaf 0")
	}
	rect = tensor.NewRect([]int{9}, []int{9})
	if !r.ownerRectInto(rect, m, []int{0}) || !rect.Equal(tensor.FullRect([]int{4})) {
		t.Fatalf("rect = %v", rect)
	}
}

// TestLaunchIDsMustCoverDomain: a launch whose id slab, cost table or leaf
// table does not hold one entry per point (and region), or whose leaf table
// names a leaf outside the machine, is rejected with an error naming the
// launch, not a panic, before the walk reads past a table.
func TestLaunchIDsMustCoverDomain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(l *Launch)
		want   string
	}{
		{"short IDs", func(l *Launch) { l.IDs = l.IDs[:len(l.IDs)-1] }, "launch add has 3 privileges, 5 requirement ids, 2 costs and 0 leaves for 2 points of 3 regions"},
		{"short Cost", func(l *Launch) { l.Cost = l.Cost[:1] }, "launch add has 3 privileges, 6 requirement ids, 1 costs and 0 leaves for 2 points of 3 regions"},
		{"short Leaf", func(l *Launch) { l.Leaf = []int32{0} }, "launch add has 3 privileges, 6 requirement ids, 2 costs and 1 leaves for 2 points of 3 regions"},
		{"Leaf outside the machine", func(l *Launch) { l.Leaf = []int32{0, 2} }, "launch add maps point [1] to leaf 2 outside the machine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, _, _, _ := vectorAddProgram(8, 2)
			tc.mutate(prog.Launches[0])
			if _, err := Run(prog, Options{Params: testParams()}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
