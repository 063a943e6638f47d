package distnot

import (
	"testing"

	"distal/internal/machine"
	"distal/internal/tensor"
)

func TestParseForms(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"x->x", "x->x"},
		{"xy->x", "xy->x"},
		{"xy->xy", "xy->xy"},
		{"xy->xy0", "xy->xy0"},
		{"xy->xy*", "xy->xy*"},
		{"xyz->xy", "xyz->xy"},
		{"xy -> xy*", "xy->xy*"},
	}
	for _, c := range cases {
		s, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if s.String() != c.want {
			t.Fatalf("Parse(%q).String() = %q, want %q", c.src, s.String(), c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"xy",        // no arrow
		"xx->x",     // duplicate tensor name
		"xy->xx",    // duplicate machine name
		"xy->xz",    // z not a tensor dim
		"x y -> x!", // bad rune
		"xy->x->y",  // two arrows
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestValidateConcrete(t *testing.T) {
	g := machine.NewGrid(2, 2)
	if err := MustParse("xy->xy").Validate(2, g); err != nil {
		t.Fatal(err)
	}
	if err := MustParse("xyz->xy").Validate(2, g); err == nil {
		t.Fatal("rank mismatch should fail")
	}
	if err := MustParse("xy->x").Validate(2, g); err == nil {
		t.Fatal("machine rank mismatch should fail")
	}
	if err := MustParse("xy->xy5").Validate(2, machine.NewGrid(2, 2, 2)); err == nil {
		t.Fatal("fixed coordinate out of range should fail")
	}
}

// TestFig5aBlockedVector: T x->x M with |T|=100, |M|=10 gives 10 elements per
// processor.
func TestFig5aBlockedVector(t *testing.T) {
	s := MustParse("x->x")
	g := machine.NewGrid(10)
	for p := 0; p < 10; p++ {
		r, ok := s.RectFor([]int{100}, g, []int{p})
		if !ok {
			t.Fatalf("proc %d should hold a piece", p)
		}
		want := tensor.NewRect([]int{p * 10}, []int{p*10 + 10})
		if !r.Equal(want) {
			t.Fatalf("proc %d rect = %v, want %v", p, r, want)
		}
	}
}

// TestFig5bRowWise: T xy->x M partitions rows; columns span fully.
func TestFig5bRowWise(t *testing.T) {
	s := MustParse("xy->x")
	g := machine.NewGrid(4)
	r, ok := s.RectFor([]int{8, 6}, g, []int{2})
	if !ok || !r.Equal(tensor.NewRect([]int{4, 0}, []int{6, 6})) {
		t.Fatalf("rect = %v", r)
	}
}

// TestFig5cTiled: T xy->xy M two-dimensional tiling.
func TestFig5cTiled(t *testing.T) {
	s := MustParse("xy->xy")
	g := machine.NewGrid(2, 2)
	r, ok := s.RectFor([]int{4, 4}, g, []int{1, 0})
	if !ok || !r.Equal(tensor.NewRect([]int{2, 0}, []int{4, 2})) {
		t.Fatalf("rect = %v", r)
	}
}

// TestFig5dFixed: T xy->xy0 M restricts tiles to the face z=0.
func TestFig5dFixed(t *testing.T) {
	s := MustParse("xy->xy0")
	g := machine.NewGrid(2, 2, 2)
	if _, ok := s.RectFor([]int{4, 4}, g, []int{1, 1, 1}); ok {
		t.Fatal("processor off the fixed face should hold nothing")
	}
	r, ok := s.RectFor([]int{4, 4}, g, []int{1, 1, 0})
	if !ok || !r.Equal(tensor.NewRect([]int{2, 2}, []int{4, 4})) {
		t.Fatalf("rect = %v", r)
	}
}

// TestFig5eBroadcast: T xy->xy* M replicates tiles across dimension 3.
func TestFig5eBroadcast(t *testing.T) {
	s := MustParse("xy->xy*")
	g := machine.NewGrid(2, 2, 2)
	for z := 0; z < 2; z++ {
		r, ok := s.RectFor([]int{4, 4}, g, []int{0, 1, z})
		if !ok || !r.Equal(tensor.NewRect([]int{0, 2}, []int{2, 4})) {
			t.Fatalf("z=%d rect = %v", z, r)
		}
	}
	if got := s.Replicas(g); got != 2 {
		t.Fatalf("Replicas = %d, want 2", got)
	}
}

// TestFig5f3Tensor: T xyz->xy M maps a 3-tensor onto a 2-D grid; the z
// dimension spans fully.
func TestFig5f3Tensor(t *testing.T) {
	s := MustParse("xyz->xy")
	g := machine.NewGrid(2, 2)
	r, ok := s.RectFor([]int{4, 4, 6}, g, []int{0, 1})
	if !ok || !r.Equal(tensor.NewRect([]int{0, 2, 0}, []int{2, 4, 6})) {
		t.Fatalf("rect = %v", r)
	}
}

// TestRunningExampleSemantics reproduces the worked P and F example of §3.2:
// T xy->xy* M with T 2x2 and M 2x2x2.
func TestRunningExampleSemantics(t *testing.T) {
	s := MustParse("xy->xy*")
	g := machine.NewGrid(2, 2, 2)
	shape := []int{2, 2}
	// Every coordinate (x,y) of T should be owned by exactly the processors
	// {(x,y,0), (x,y,1)}.
	tensor.FullRect(shape).Points(func(p []int) {
		owners := s.OwnersOf(shape, g, p)
		if len(owners) != 2 {
			t.Fatalf("coordinate %v owned by %v, want 2 owners", p, owners)
		}
		for zi, o := range owners {
			if o[0] != p[0] || o[1] != p[1] || o[2] != zi {
				t.Fatalf("coordinate %v owner %d = %v", p, zi, o)
			}
		}
	})
}

func TestOwnersOfFixed(t *testing.T) {
	s := MustParse("xy->xy0")
	g := machine.NewGrid(2, 2, 2)
	owners := s.OwnersOf([]int{4, 4}, g, []int{3, 1})
	if len(owners) != 1 {
		t.Fatalf("owners = %v", owners)
	}
	o := owners[0]
	if o[0] != 1 || o[1] != 0 || o[2] != 0 {
		t.Fatalf("owner = %v, want [1 0 0]", o)
	}
}

// TestOwnersMatchRects: the processor returned by OwnersOf must be exactly
// the processors whose RectFor contains the coordinate.
func TestOwnersMatchRects(t *testing.T) {
	for _, src := range []string{"xy->xy", "xy->x", "xy->xy*", "xy->xy1", "xyz->xz"} {
		s := MustParse(src)
		var g machine.Grid
		var shape []int
		if len(s.MachineDims) == 3 {
			g = machine.NewGrid(2, 3, 2)
		} else if len(s.MachineDims) == 2 {
			g = machine.NewGrid(2, 3)
		} else {
			g = machine.NewGrid(3)
		}
		if len(s.TensorDims) == 3 {
			shape = []int{4, 5, 6}
		} else {
			shape = []int{4, 5}
		}
		tensor.FullRect(shape).Points(func(p []int) {
			ownerSet := map[string]bool{}
			for _, o := range s.OwnersOf(shape, g, p) {
				ownerSet[fmtCoord(o)] = true
			}
			g.Points(func(proc []int) {
				r, ok := s.RectFor(shape, g, proc)
				holds := ok && r.Contains(p)
				if holds != ownerSet[fmtCoord(proc)] {
					t.Fatalf("%s: proc %v holds %v: rect says %v, owners say %v",
						src, proc, p, holds, ownerSet[fmtCoord(proc)])
				}
			})
		})
	}
}

func fmtCoord(p []int) string {
	out := ""
	for _, x := range p {
		out += string(rune('0'+x)) + ","
	}
	return out
}

// TestPiecesTile: for distributions with no broadcast/fixed dims, pieces must
// tile the tensor exactly (each coordinate owned exactly once).
func TestPiecesTile(t *testing.T) {
	s := MustParse("xy->xy")
	g := machine.NewGrid(3, 2)
	shape := []int{7, 5} // non-divisible extents
	count := map[string]int{}
	g.Points(func(proc []int) {
		r, ok := s.RectFor(shape, g, proc)
		if !ok {
			t.Fatal("all procs should hold pieces")
		}
		r.Points(func(p []int) { count[fmtCoord(p)]++ })
	})
	total := 0
	for _, c := range count {
		if c != 1 {
			t.Fatal("coordinate owned more than once")
		}
		total++
	}
	if total != 35 {
		t.Fatalf("covered %d coordinates, want 35", total)
	}
}

func TestHierarchicalPlacement(t *testing.T) {
	// Paper example: [T xy->xy M, T zw->z M]: 2-D tiling at the node level,
	// row-wise partition of each tile per GPU.
	gpus := machine.New(machine.NewGrid(2), machine.GPUFBMem, machine.GPU)
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU).WithChild(gpus)
	p := MustParsePlacement("xy->xy; zw->z")
	if err := p.Validate(2, m); err != nil {
		t.Fatal(err)
	}
	shape := []int{8, 8}
	// Node (1,0), GPU 1: node tile rows [4,8) cols [0,4); GPU splits rows:
	// GPU 1 gets rows [6,8).
	r, ok := p.RectFor(shape, m, []int{1, 0, 1})
	if !ok {
		t.Fatal("leaf should hold a piece")
	}
	want := tensor.NewRect([]int{6, 0}, []int{8, 4})
	if !r.Equal(want) {
		t.Fatalf("rect = %v, want %v", r, want)
	}
}

func TestPlacementFewerLevelsReplicates(t *testing.T) {
	gpus := machine.New(machine.NewGrid(4), machine.GPUFBMem, machine.GPU)
	m := machine.New(machine.NewGrid(2), machine.SysMem, machine.CPU).WithChild(gpus)
	p := NewPlacement(MustParse("xy->x"))
	r0, ok0 := p.RectFor([]int{8, 8}, m, []int{1, 0})
	r1, ok1 := p.RectFor([]int{8, 8}, m, []int{1, 3})
	if !ok0 || !ok1 || !r0.Equal(r1) {
		t.Fatalf("pieces should be replicated across the unspecified level: %v vs %v", r0, r1)
	}
}

func TestPlacementValidateTooManyLevels(t *testing.T) {
	m := machine.New(machine.NewGrid(2), machine.SysMem, machine.CPU)
	p := MustParsePlacement("xy->x; xy->x")
	if err := p.Validate(2, m); err == nil {
		t.Fatal("expected error for more placement levels than machine levels")
	}
}

func TestPlacementString(t *testing.T) {
	p := MustParsePlacement("xy->xy; zw->z")
	if p.String() != "xy->xy; zw->z" {
		t.Fatalf("String() = %q", p.String())
	}
}
