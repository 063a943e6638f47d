package distnot

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"distal/internal/machine"
	"distal/internal/tensor"
)

// TestHierarchicalRefinementProperty: the leaf pieces of a hierarchical
// placement must refine their node piece — every leaf rect is contained in
// the rect its node holds at level 0, and the leaves of one node exactly
// tile that node's piece when the inner statement has no broadcast or fixed
// dimensions.
func TestHierarchicalRefinementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := rng.Intn(3)+1, rng.Intn(3)+1
		gpus := rng.Intn(3) + 1
		rows, cols := rng.Intn(12)+gpus, rng.Intn(12)+1
		child := machine.New(machine.NewGrid(gpus), machine.GPUFBMem, machine.GPU)
		m := machine.New(machine.NewGrid(nx, ny), machine.SysMem, machine.CPU).WithChild(child)
		p := MustParsePlacement("xy->xy; zw->z")
		shape := []int{rows, cols}
		outer := p.Levels[0]
		ok := true
		m.Grid.Points(func(node []int) {
			nodeRect, has := outer.RectFor(shape, m.Grid, node)
			if !has {
				ok = false
				return
			}
			covered := 0
			for g := 0; g < gpus; g++ {
				leaf := append(append([]int{}, node...), g)
				r, has := p.RectFor(shape, m, leaf)
				if !has {
					ok = false
					return
				}
				if !nodeRect.ContainsRect(r) {
					ok = false
					return
				}
				covered += r.Volume()
			}
			if covered != nodeRect.Volume() {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// levelwiseRectFor is the placement semantics stated level by level: apply
// each level's statement to the current piece's shape, then translate the
// result by the piece's origin. Placement.RectFor narrows one rect in place
// and must agree with it exactly.
func levelwiseRectFor(p *Placement, shape []int, m *machine.Machine, leaf []int) (tensor.Rect, bool) {
	rect := tensor.FullRect(shape)
	off := 0
	for li, lvl := range m.Levels() {
		g := lvl.Grid
		sub := leaf[off : off+g.Rank()]
		off += g.Rank()
		if li >= len(p.Levels) {
			continue
		}
		pieceShape := make([]int, rect.Rank())
		for d := range pieceShape {
			pieceShape[d] = rect.Extent(d)
		}
		sr, ok := p.Levels[li].RectFor(pieceShape, g, sub)
		if !ok {
			return tensor.Rect{}, false
		}
		for d := range sr.Lo {
			sr.Lo[d] += rect.Lo[d]
			sr.Hi[d] += rect.Lo[d]
		}
		rect = sr
	}
	return rect, true
}

// TestPlacementRectForLevelwise: over random one- and two-level placements
// (partitioned, broadcast, fixed and unspecified deeper levels; ragged, prime
// and unit extents), RectFor returns exactly the level-by-level rect.
func TestPlacementRectForLevelwise(t *testing.T) {
	outer := []string{"xy->xy", "xy->yx", "xy->x*", "xy->*y", "xy->x0", "xy->1y", "xy->**"}
	inner := []string{"", "xy->x", "xy->y", "xy->*", "xy->0"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := outer[rng.Intn(len(outer))]
		if in := inner[rng.Intn(len(inner))]; in != "" {
			src += "; " + in
		}
		p := MustParsePlacement(src)
		child := machine.New(machine.NewGrid(rng.Intn(3)+1), machine.GPUFBMem, machine.GPU)
		m := machine.New(machine.NewGrid(rng.Intn(3)+2, rng.Intn(3)+2), machine.SysMem, machine.CPU).WithChild(child)
		extents := []int{1, 2, 3, 7, 13, 16}
		shape := []int{extents[rng.Intn(len(extents))], extents[rng.Intn(len(extents))]}
		ok := true
		m.LeafGrid().Points(func(leaf []int) {
			got, gotOK := p.RectFor(shape, m, leaf)
			want, wantOK := levelwiseRectFor(p, shape, m, leaf)
			if gotOK != wantOK || gotOK && (!slices.Equal(got.Lo, want.Lo) || !slices.Equal(got.Hi, want.Hi)) {
				t.Logf("%s shape %v leaf %v: got %v,%v want %v,%v", src, shape, leaf, got, gotOK, want, wantOK)
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementRectForAllocs: a hierarchical RectFor allocates only the
// returned rect's Lo and Hi, and RectInto allocates nothing.
func TestPlacementRectForAllocs(t *testing.T) {
	child := machine.New(machine.NewGrid(4), machine.GPUFBMem, machine.GPU)
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU).WithChild(child)
	p := MustParsePlacement("xy->xy; xy->x")
	shape, leaf := []int{64, 48}, []int{1, 0, 3}
	if n := testing.AllocsPerRun(100, func() { p.RectFor(shape, m, leaf) }); n > 2 {
		t.Fatalf("RectFor allocates %v times, want <= 2 (the rect's Lo and Hi)", n)
	}
	dst := tensor.FullRect(shape)
	if n := testing.AllocsPerRun(100, func() { p.RectInto(dst, shape, m, leaf) }); n != 0 {
		t.Fatalf("RectInto allocates %v times, want 0", n)
	}
}

// TestOwnersCoverEveryCoordinateProperty: for any valid statement without
// empty pieces, every tensor coordinate has at least one owner, and the
// number of owners equals Replicas for statements without Fixed dims.
func TestOwnersCoverEveryCoordinateProperty(t *testing.T) {
	stmts := []string{"xy->xy", "xy->x*", "xy->*y", "xy->xy*", "xyz->zx", "x->**"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := MustParse(stmts[rng.Intn(len(stmts))])
		dims := make([]int, len(s.MachineDims))
		for d := range dims {
			dims[d] = rng.Intn(3) + 1
		}
		g := machine.NewGrid(dims...)
		shape := make([]int, len(s.TensorDims))
		for d := range shape {
			shape[d] = rng.Intn(6) + 1
		}
		ok := true
		tensor.FullRect(shape).Points(func(p []int) {
			owners := s.OwnersOf(shape, g, p)
			if len(owners) == 0 || len(owners) != s.Replicas(g) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
