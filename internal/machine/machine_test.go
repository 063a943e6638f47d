package machine

import (
	"testing"
	"testing/quick"
)

func TestGridSizeRank(t *testing.T) {
	g := NewGrid(2, 3, 4)
	if g.Rank() != 3 || g.Size() != 24 {
		t.Fatalf("rank/size = %d/%d, want 3/24", g.Rank(), g.Size())
	}
}

func TestGridLinearizeRoundTrip(t *testing.T) {
	g := NewGrid(3, 4, 5)
	for i := 0; i < g.Size(); i++ {
		p := g.Delinearize(i)
		if got := g.Linearize(p); got != i {
			t.Fatalf("Linearize(Delinearize(%d)) = %d", i, got)
		}
	}
}

func TestGridLinearizeRoundTripProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		g := NewGrid(int(a%5)+1, int(b%5)+1, int(c%5)+1)
		for i := 0; i < g.Size(); i++ {
			if g.Linearize(g.Delinearize(i)) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridPointsVisitsAll(t *testing.T) {
	g := NewGrid(2, 2)
	seen := map[[2]int]bool{}
	g.Points(func(p []int) { seen[[2]int{p[0], p[1]}] = true })
	if len(seen) != 4 {
		t.Fatalf("visited %d points, want 4", len(seen))
	}
}

func TestGridOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(2, 2).Linearize([]int{2, 0})
}

func TestInvalidGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero dimension")
		}
	}()
	NewGrid(2, 0)
}

func TestFlatMachine(t *testing.T) {
	m := New(NewGrid(4, 4), SysMem, CPU)
	lv := m.Levels()
	if len(lv) != 1 || m.LeafCount() != 16 {
		t.Fatalf("depth/leaves = %d/%d, want 1/16", len(lv), m.LeafCount())
	}
	if m.LeafMem() != SysMem || lv[0].Proc != CPU {
		t.Fatal("leaf mem/proc wrong for flat machine")
	}
}

func TestHierarchicalMachine(t *testing.T) {
	// 2x2 grid of nodes, each node a 1-D grid of 4 GPUs (the Lassen model).
	gpus := New(NewGrid(4), GPUFBMem, GPU)
	m := New(NewGrid(2, 2), SysMem, CPU).WithChild(gpus)
	lv := m.Levels()
	if len(lv) != 2 {
		t.Fatalf("depth = %d, want 2", len(lv))
	}
	if m.LeafCount() != 16 {
		t.Fatalf("leaf count = %d, want 16", m.LeafCount())
	}
	lg := m.LeafGrid()
	if lg.Rank() != 3 || lg.Dims[0] != 2 || lg.Dims[1] != 2 || lg.Dims[2] != 4 {
		t.Fatalf("leaf grid = %v", lg)
	}
	if m.LeafMem() != GPUFBMem || lv[1].Proc != GPU {
		t.Fatal("leaf mem/proc should come from innermost level")
	}
}

func TestNodeOf(t *testing.T) {
	gpus := New(NewGrid(4), GPUFBMem, GPU)
	m := New(NewGrid(2, 2), SysMem, CPU).WithChild(gpus)
	// Leaves (0,1,x) all share node Linearize(0,1) = 1.
	for x := 0; x < 4; x++ {
		if got := m.NodeOf([]int{0, 1, x}); got != 1 {
			t.Fatalf("NodeOf(0,1,%d) = %d, want 1", x, got)
		}
	}
	if m.NodeOf([]int{1, 0, 2}) == m.NodeOf([]int{0, 1, 2}) {
		t.Fatal("distinct nodes must have distinct ids")
	}
}

// TestNodeOfProcsPerNode: with ProcsPerNode set, a leaf's node is its flat
// leaf-grid index divided by the node size, computed without allocating.
func TestNodeOfProcsPerNode(t *testing.T) {
	gpus := New(NewGrid(3), GPUFBMem, GPU)
	m := New(NewGrid(2, 5), SysMem, CPU).WithChild(gpus).WithProcsPerNode(4)
	lg := m.LeafGrid()
	for l := 0; l < lg.Size(); l++ {
		if got := m.NodeOf(lg.Delinearize(l)); got != l/4 {
			t.Fatalf("NodeOf(leaf %d) = %d, want %d", l, got, l/4)
		}
	}
	leaf := []int{1, 3, 2}
	if n := testing.AllocsPerRun(100, func() { m.NodeOf(leaf) }); n != 0 {
		t.Fatalf("NodeOf allocates %v times, want 0", n)
	}
}

func TestMachineString(t *testing.T) {
	gpus := New(NewGrid(4), GPUFBMem, GPU)
	m := New(NewGrid(2, 2), SysMem, CPU).WithChild(gpus)
	want := "Grid(2,2)[CPU/SysMem] of Grid(4)[GPU/GPUFBMem]"
	if m.String() != want {
		t.Fatalf("String() = %q, want %q", m.String(), want)
	}
}

func TestWithChildDoesNotMutate(t *testing.T) {
	base := New(NewGrid(2), SysMem, CPU)
	_ = base.WithChild(New(NewGrid(2), GPUFBMem, GPU))
	if base.Child != nil {
		t.Fatal("WithChild must not mutate the receiver")
	}
}
