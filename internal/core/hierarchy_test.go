package core

import (
	"testing"

	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/machine"
	"distal/internal/schedule"
)

// TestHierarchicalMachineEndToEnd exercises the full §3 hierarchy story: a
// 2x2 grid of nodes each containing 2 GPUs, a hierarchical data
// distribution ("xy->xy; zw->z": node tiles split row-wise per GPU), and a
// two-level distribute whose flattened task grid matches the machine's leaf
// grid. The distributed result must match the reference.
func TestHierarchicalMachineEndToEnd(t *testing.T) {
	const n = 16
	gpus := machine.New(machine.NewGrid(2), machine.GPUFBMem, machine.GPU)
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU).WithChild(gpus)

	place := distnot.MustParsePlacement("xy->xy; zw->z")
	mk := func(name string) *TensorDecl {
		return &TensorDecl{Name: name, Shape: []int{n, n}, Placement: place}
	}
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	// Node-level tiles (io, jo), then the i tile split again across the
	// GPUs of a node (iio): the distributed prefix (io, jo, iio) matches
	// the leaf grid (2, 2, 2).
	s := schedule.New(stmt).
		Divide("i", "io", "ii", 2).
		Divide("j", "jo", "ji", 2).
		Divide("ii", "iio", "iii", 2).
		Reorder("io", "jo", "iio", "iii", "ji", "k").
		Distribute("io", "jo", "iio").
		Communicate("iio", "A", "B", "C")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	in := Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*TensorDecl{
			"A": mk("A"), "B": mk("B"), "C": mk("C"),
		},
		Schedule: s,
	}
	prog, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Launches[0].Domain.Size(); got != 8 {
		t.Fatalf("task domain = %d points, want 8", got)
	}
	res := runAndCheck(t, in, map[string]int64{"B": 21, "C": 22})
	if res.Flops != 2*n*n*n {
		t.Fatalf("flops = %v, want %v", res.Flops, 2*n*n*n)
	}
}

// TestHierarchicalCommStaysOnFastLinks: with the hierarchical distribution
// above, the A tiles are GPU-local (owner computes), so A moves nothing;
// the contraction traffic for the k panels is the only communication.
func TestHierarchicalCommSplit(t *testing.T) {
	const n = 1024
	gpus := machine.New(machine.NewGrid(4), machine.GPUFBMem, machine.GPU)
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU).WithChild(gpus)
	place := distnot.MustParsePlacement("xy->xy; zw->z")
	mk := func(name string) *TensorDecl {
		return &TensorDecl{Name: name, Shape: []int{n, n}, Placement: place}
	}
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	s := schedule.New(stmt).
		Divide("i", "io", "ii", 2).
		Divide("j", "jo", "ji", 2).
		Divide("ii", "iio", "iii", 4).
		Reorder("io", "jo", "iio", "iii", "ji", "k").
		Distribute("io", "jo", "iio").
		Communicate("iio", "A", "B", "C")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(Input{
		Stmt: stmt, Machine: m,
		Tensors:  map[string]*TensorDecl{"A": mk("A"), "B": mk("B"), "C": mk("C")},
		Schedule: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := legion.Run(prog, legion.Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntraBytes == 0 || res.InterBytes == 0 {
		t.Fatalf("expected both intra- and inter-node traffic, got %d / %d",
			res.IntraBytes, res.InterBytes)
	}
}
