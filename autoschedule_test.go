package distal

import (
	"context"
	"strings"
	"testing"

	"distal/internal/ir"
	"distal/internal/tensor"
)

// autoRun auto-schedules comp, compiles it, and runs it on the tensors.
func autoRun(t *testing.T, comp *Computation, tensors ...*Tensor) *Result {
	t.Helper()
	if err := comp.AutoSchedule(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plan, err := comp.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Bind(tensors...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAutoScheduleGEMMCorrect(t *testing.T) {
	const n = 12
	m := NewMachine(CPU, 2, 2)
	f := Tiled(2)
	A := NewTensor("A", f, n, n).Zero()
	B := NewTensor("B", f, n, n).FillRandom(1)
	C := NewTensor("C", f, n, n).FillRandom(2)
	comp := NewSession(m).MustDefine("A(i,j) = B(i,k) * C(k,j)", A, B, C)
	autoRun(t, comp, A, B, C)
	want, err := ir.Evaluate(comp.Stmt, map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !A.Data.EqualWithin(want, 1e-9) {
		t.Fatal("auto-scheduled GEMM wrong")
	}
}

func TestAutoScheduleAlignedTTVIsCommFree(t *testing.T) {
	m := NewMachine(CPU, 2, 2)
	A := NewTensor("A", Tiled(2), 8, 8).Zero()
	B := NewTensor("B", MustFormat("xyz->xy"), 8, 8, 4).FillRandom(1)
	c := NewTensor("c", MustFormat("x->**"), 4).FillRandom(2)
	comp := NewSession(m).MustDefine("A(i,j) = B(i,j,k) * c(k)", A, B, c)
	res := autoRun(t, comp, A, B, c)
	if res.Copies != 0 {
		t.Fatalf("aligned TTV should be communication-free, got %d copies", res.Copies)
	}
	want, err := ir.Evaluate(comp.Stmt, map[string]*tensor.Dense{"B": B.Data, "c": c.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !A.Data.EqualWithin(want, 1e-9) {
		t.Fatal("auto-scheduled TTV wrong")
	}
}

func TestAutoScheduleRejectsLowRankOutput(t *testing.T) {
	m := NewMachine(CPU, 2, 2)
	a := NewTensor("a", MustFormat("x->00"), 1).Zero()
	B := NewTensor("B", MustFormat("xyz->xy"), 4, 4, 4).FillRandom(1)
	C := NewTensor("C", MustFormat("xyz->xy"), 4, 4, 4).FillRandom(2)
	comp := NewSession(m).MustDefine("a = B(i,j,k) * C(i,j,k)", a, B, C)
	if err := comp.AutoSchedule(); err == nil {
		t.Fatal("scalar output on a 2-D machine should be rejected")
	}
}

// TestAutoScheduleGridWiderThanOutput: a machine grid with more dimensions
// than the output has index variables cannot be tiled owner-computes; the
// error must name the requirement rather than panic or mis-schedule.
func TestAutoScheduleGridWiderThanOutput(t *testing.T) {
	m := NewMachine(CPU, 2, 2, 2) // 3-D grid
	f := MustFormat("xy->xy0")
	A := NewTensor("A", f, 8, 8)
	B := NewTensor("B", f, 8, 8)
	C := NewTensor("C", f, 8, 8)
	// Output has two index variables (i, j), machine has three grid dims.
	comp := NewSession(m).MustDefine("A(i,j) = B(i,k) * C(k,j)", A, B, C)
	err := comp.AutoSchedule()
	if err == nil {
		t.Fatal("3-D grid with a 2-var output should be rejected")
	}
	if want := "AutoSchedule needs >= 3 output variables"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q should contain %q", err, want)
	}
	// The failed attempt must not have half-applied commands: the schedule
	// is untouched and manual scheduling still works.
	if text := comp.ScheduleText(); text != "" {
		t.Fatalf("failed AutoSchedule left commands behind: %q", text)
	}
}

// TestAutoScheduleHierarchicalGrid: AutoSchedule tiles over the flattened
// leaf grid, so a hierarchical machine counts every level's dimensions.
func TestAutoScheduleHierarchicalGrid(t *testing.T) {
	// A 2x2 grid of processors with ProcsPerNode grouping still has leaf
	// grid rank 2: a 3-var output auto-schedules fine.
	m := NewMachine(CPU, 2, 2).WithProcsPerNode(2)
	f := MustFormat("xyz->xy")
	A := NewTensor("A", f, 8, 8, 8).Zero()
	B := NewTensor("B", f, 8, 8, 8).FillRandom(1)
	comp := NewSession(m).MustDefine("A(i,j,k) = B(i,j,k)", A, B)
	res := autoRun(t, comp, A, B)
	if res.Copies != 0 {
		t.Fatalf("aligned element-wise copy should be communication-free, got %d copies", res.Copies)
	}
}
