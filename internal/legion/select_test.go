package legion

import (
	"math/rand"
	"slices"
	"testing"

	"distal/internal/distnot"
	"distal/internal/machine"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// testExecutor returns an executor over m that has placed the given regions
// exactly as a run does, ready for ensureLocal to be driven by hand.
func testExecutor(m *machine.Machine, opt Options, regions ...*Region) *executor {
	if opt.TransientWindow == 0 {
		opt.TransientWindow = defaultTransientWindow
	}
	e := &executor{
		walkScratch: walkPool.New().(*walkScratch),
		prog:        &Program{Machine: m},
		opt:         opt,
		s:           sim.New(m, opt.Params),
		lg:          m.LeafGrid(),
		gpuMem:      m.LeafMem() == machine.GPUFBMem,
		instChunk:   8,
		accChunk:    8,
	}
	e.coord = make([]int, e.lg.Rank())
	for _, r := range regions {
		e.placeRegion(r)
	}
	return e
}

// readOne runs ensureLocal for a read of rect id of r on leaf, as runLaunch
// does, and returns the copies it recorded.
func readOne(e *executor, r *Region, id int32, leaf int, issueAt float64) (float64, []CopyRecord, error) {
	q := Req{Region: r, Rect: r.Rects[id], Priv: ReadOnly, ID: id}
	rs := e.reg[r]
	n := len(e.trace)
	at, err := e.ensureLocal(&Launch{Name: "read", Domain: machine.NewGrid(1)}, 0, &q, rs, rs.factsOf(&q), leaf, issueAt)
	return at, e.trace[n:], err
}

// pinnedTo0 places a rank-1 region wholly on leaf 0.
func pinnedTo0() *distnot.Placement {
	return distnot.NewPlacement(&distnot.Statement{
		TensorDims:  []string{"x"},
		MachineDims: []distnot.MachineName{{Kind: distnot.Fixed, Index: 0}},
	})
}

// TestSourceTieGoesToEarlierReplica: a live transient of the rect itself
// (found by id) and a live transient of a strictly larger rect (found through
// its volume bucket) both hold the requested rect and price equally; the one
// installed first is the source, whichever kind it is. The owner is valid
// later and loses, and all three count as replicas.
func TestSourceTieGoesToEarlierReplica(t *testing.T) {
	for _, exactFirst := range []bool{true, false} {
		params := testParams()
		params.ReplicaOverhead = 1
		b := NewRegion("B", []int{16}, pinnedTo0())
		b.Rects = []tensor.Rect{tensor.NewRect([]int{0}, []int{8}), tensor.FullRect([]int{16})}
		e := testExecutor(flatMachine(4), Options{Params: params, Trace: true}, b)
		rs := e.reg[b]
		rs.persistent[0].validAt = 1
		exact, larger := func() { e.installTransient(rs, 1, b.Rects[0], 0, 0, 64) },
			func() { e.installTransient(rs, 2, b.Rects[1], 1, 0, 128) }
		want := 1
		if exactFirst {
			exact()
			larger()
		} else {
			larger()
			exact()
			want = 2
		}
		at, copies, err := readOne(e, b, 0, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(copies) != 1 || copies[0].Src != want || copies[0].Dst != 3 {
			t.Fatalf("exact first %v: copies %+v, want one from leaf %d", exactFirst, copies, want)
		}
		// 64 bytes at 10 B/s, no latency, three replicas at 1 s each.
		if at != 6.4+3 {
			t.Fatalf("exact first %v: copy ends at %v, want 9.4", exactFirst, at)
		}
	}
}

// TestReplicatedOwnersCover: under a '*' placement two owners hold each
// piece, so both are candidates for a read of it, in placement order. On a
// tie the first owner is the source; once its out-port is busy the second
// owner is, ahead of the fresh transient, and every candidate counts as a
// replica.
func TestReplicatedOwnersCover(t *testing.T) {
	params := testParams()
	params.ReplicaOverhead = 1
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU)
	// Leaves 0 and 1 own B[0:4), leaves 2 and 3 own B[4:8).
	b := NewRegion("B", []int{8}, distnot.NewPlacement(distnot.MustParse("x->x*")))
	a := NewRegion("A", []int{4}, distnot.NewPlacement(distnot.MustParse("x->x*")))
	piece := tensor.NewRect([]int{0}, []int{4})
	prog := &Program{Name: "replicated", Machine: m, Regions: []*Region{a, b},
		Launches: []*Launch{readLaunch("t1", a, b, 2, piece), readLaunch("t2", a, b, 3, piece)}}
	rs := testExecutor(m, Options{Params: params}, b).reg[b]
	if got := rs.coverFor(nil, piece); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("owners covering %v: %v, want the first two", piece, got)
	}
	res, err := Run(prog, Options{Params: params, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %+v, want two copies", res.Trace)
	}
	// t1: owners 0 and 1 tie at 32/10 + 2 replicas; t2: owner 0's out-port
	// is busy until 3.2, owner 1 is free, leaf 2's transient is valid at 5.2.
	if c := res.Trace[0]; c.Src != 0 || c.Dst != 2 || c.End != 5.2 {
		t.Fatalf("first copy %+v, want owner 0 -> leaf 2 ending at 5.2", c)
	}
	if c := res.Trace[1]; c.Src != 1 || c.Dst != 3 || c.End != 6.2 {
		t.Fatalf("second copy %+v, want owner 1 -> leaf 3 ending at 6.2", c)
	}
}

// scanSources is the source search by exhaustive ordered scan over every
// instance of the region: the owners containing rect in placement order,
// then (unless ownerOnly) every live transient containing it in
// installation order.
func scanSources(rs *regState, rect tensor.Rect, ownerOnly bool) []*instance {
	var out, trans []*instance
	for i := range rs.persistent {
		if rs.persistent[i].rect.ContainsRect(rect) {
			out = append(out, &rs.persistent[i])
		}
	}
	if ownerOnly {
		return out
	}
	for _, fifo := range rs.transFIFO {
		for _, inst := range fifo {
			if inst.rect.ContainsRect(rect) {
				trans = append(trans, inst)
			}
		}
	}
	slices.SortFunc(trans, func(a, b *instance) int { return int(a.seq - b.seq) })
	return append(out, trans...)
}

// nestedRects draws a region's rect table: the owners' rects, random
// rects, and a random sub-rect of each, so that rects nest and live
// transients of larger rects hold smaller ones.
func nestedRects(rng *rand.Rand, shape []int, rs *regState) []tensor.Rect {
	var out []tensor.Rect
	seen := map[tensor.RectKey]bool{}
	add := func(r tensor.Rect) {
		if !r.Empty() && !seen[r.Key()] {
			seen[r.Key()] = true
			out = append(out, r)
		}
	}
	sub := func(r tensor.Rect) tensor.Rect {
		lo, hi := make([]int, len(shape)), make([]int, len(shape))
		for d := range shape {
			lo[d] = r.Lo[d] + rng.Intn(r.Extent(d))
			hi[d] = lo[d] + 1 + rng.Intn(r.Hi[d]-lo[d])
		}
		return tensor.Rect{Lo: lo, Hi: hi}
	}
	for i := range rs.persistent {
		o := rs.persistent[i].rect
		add(tensor.NewRect(o.Lo, o.Hi))
	}
	for range 6 {
		r := sub(tensor.FullRect(shape))
		add(r)
		add(sub(r))
		add(sub(sub(r)))
	}
	return out
}

// TestSourceSelectionMatchesScan: over small random programs — random
// two-level machines, placements (replicated ones included), nested
// requirement rects, leaves, issue times, transient windows and the
// OwnerOnly ablation — every read that copies takes its source, start, end
// and replica count from the exhaustive ordered scan: the first candidate
// with the least end. A read held on its leaf copies nothing, and one no
// single instance holds is gathered from the overlapping owners.
func TestSourceSelectionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extents := []int{3, 5, 8, 12}
	copies, ties := 0, 0
	for trial := 0; trial < 150; trial++ {
		child := machine.New(machine.NewGrid(rng.Intn(3)+1), machine.GPUFBMem, machine.GPU)
		m := machine.New(machine.NewGrid(rng.Intn(3)+1, rng.Intn(3)+1), machine.SysMem, machine.CPU).WithChild(child)
		shape := []int{extents[rng.Intn(len(extents))], extents[rng.Intn(len(extents))]}
		r := NewRegion("T", shape, randomPlacement(rng))
		opt := Options{Params: sim.LassenGPU(), Trace: true, OwnerOnly: rng.Intn(4) == 0, TransientWindow: rng.Intn(3) + 1}
		opt.Params.ReplicaOverhead = 1e-3 // large enough to move the choice
		e := testExecutor(m, opt)
		e.placeRegion(r)
		r.Rects = nestedRects(rng, shape, e.reg[r])
		e.placeRegion(r) // again, now that the rect table is known
		rs := e.reg[r]
		leaves := e.lg.Size()
		for step := 0; step < 60; step++ {
			id, leaf := int32(rng.Intn(len(r.Rects))), rng.Intn(leaves)
			rect := r.Rects[id]
			issueAt := 0.0
			if rng.Intn(2) == 0 {
				issueAt = e.s.Makespan() * rng.Float64()
			}
			local := -1
			for i, inst := range rs.perLeaf[leaf] {
				if inst.rect.ContainsRect(rect) {
					local = i
					break
				}
			}
			var local0 float64
			if local >= 0 {
				local0 = max(rs.perLeaf[leaf][local].validAt, issueAt)
			}
			cands := scanSources(rs, rect, opt.OwnerOnly)
			var best *instance
			var bestEnd float64
			var p sim.CopyPricer
			e.s.PriceCopies(&p, leaf, r.Bytes(rect), issueAt, e.gpuMem, len(cands))
			for _, c := range cands {
				end := p.End(c.leaf, c.validAt)
				if best != nil && end == bestEnd {
					ties++
				}
				if best == nil || end < bestEnd {
					best, bestEnd = c, end
				}
			}
			pieces := scanPieces(rs, rect)
			covered := int64(0)
			for _, op := range pieces {
				covered += op.bytes
			}
			at, recs, err := readOne(e, r, id, leaf, issueAt)
			switch {
			case local < 0 && best == nil && covered < r.Bytes(rect):
				// The placement leaves part of the rect unowned.
				if err == nil {
					t.Fatalf("trial %d step %d: a read of unowned %v succeeded", trial, step, rect)
				}
				continue
			case err != nil:
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			case local >= 0:
				if len(recs) != 0 || at != local0 {
					t.Fatalf("trial %d step %d: %v is on leaf %d, but the read copied %+v and is valid at %v, want %v",
						trial, step, rect, leaf, recs, at, local0)
				}
			case best != nil:
				copies++
				want := CopyRecord{Src: best.leaf, Dst: leaf, Start: max(issueAt, best.validAt), End: bestEnd}
				if len(recs) != 1 || recs[0].Src != want.Src || recs[0].Start != want.Start || recs[0].End != want.End || !recs[0].Rect.Equal(rect) {
					t.Fatalf("trial %d step %d: read of %v on leaf %d copied %+v, the scan of %d candidates wants %+v",
						trial, step, rect, leaf, recs, len(cands), want)
				}
			default:
				var want []CopyRecord
				for _, op := range pieces {
					if op.inst.leaf != leaf {
						want = append(want, CopyRecord{Src: op.inst.leaf, Rect: op.piece})
					}
				}
				if !slices.EqualFunc(recs, want, func(a, b CopyRecord) bool { return a.Src == b.Src && a.Rect.Equal(b.Rect) }) {
					t.Fatalf("trial %d step %d: gather of %v on leaf %d copied %+v, want %+v", trial, step, rect, leaf, recs, want)
				}
			}
		}
	}
	if copies < 1000 || ties < 100 {
		t.Fatalf("the programs priced %d copies with %d ties: too few to exercise the scan", copies, ties)
	}
	t.Logf("%d copies, %d ties", copies, ties)
}
