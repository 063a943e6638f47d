package distal

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"distal/internal/ir"
	"distal/internal/tensor"
)

// TestFigure2Quickstart reproduces the paper's Figure 2 program (SUMMA on a
// processor grid) through the public API and validates the result.
func TestFigure2Quickstart(t *testing.T) {
	const n, gx, gy = 8, 2, 2
	m := NewMachine(CPU, gx, gy)
	f := Tiled(2)
	A := NewTensor("A", f, n, n).Zero()
	B := NewTensor("B", f, n, n).FillRandom(1)
	C := NewTensor("C", f, n, n).FillRandom(2)
	comp := NewSession(m).MustDefine("A(i,j) = B(i,k) * C(k,j)", A, B, C)
	comp.Schedule().
		Divide("i", "io", "ii", gx).Divide("j", "jo", "ji", gy).
		Reorder("io", "jo", "ii", "ji").
		Distribute("io", "jo").
		Split("k", "ko", "ki", 4).
		Reorder("io", "jo", "ko", "ii", "ji", "ki").
		Communicate("jo", "A").
		Communicate("ko", "B", "C").
		Substitute([]string{"ii", "ji", "ki"}, "BLAS.GEMM")
	ctx := context.Background()
	plan, err := comp.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Bind(A, B, C).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Evaluate(comp.Stmt, map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !A.Data.EqualWithin(want, 1e-9) {
		t.Fatal("Figure 2 program produced a wrong product")
	}
	if res.Flops != 2*n*n*n {
		t.Fatalf("flops = %v, want %v", res.Flops, 2*n*n*n)
	}
}

func TestDefineErrors(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2))
	if _, err := sess.Define("A(i) = B(i"); err == nil {
		t.Fatal("parse error should surface")
	}
	A := NewTensor("A", MustFormat("x->x"), 4)
	if _, err := sess.Define("A(i) = B(i)", A); err == nil {
		t.Fatal("missing tensor should surface")
	}
	B := NewTensor("B", MustFormat("x->x"), 5)
	if _, err := sess.Define("A(i) = B(i)", A, B); err == nil {
		t.Fatal("shape mismatch should surface")
	}
}

func TestScheduleErrorSurfacesAtCompile(t *testing.T) {
	f := MustFormat("x->x")
	A := NewTensor("A", f, 4).Zero()
	B := NewTensor("B", f, 4).FillRandom(1)
	comp := NewSession(NewMachine(CPU, 2)).MustDefine("A(i) = B(i)", A, B)
	comp.Schedule().Divide("nope", "a", "b", 2)
	if _, err := comp.Compile(context.Background()); KindOf(err) != KindSchedule {
		t.Fatalf("schedule error should surface at Compile as KindSchedule, got %v", err)
	}
}

// TestComputationMustSpellARequest: a fluent computation compiles as the
// Request it spells, so what a request cannot spell is rejected with a typed
// error instead of compiling as something else: a zero Format (no
// placement, which a request would read as the default tiling), an empty
// schedule (which a request would read as AutoSchedule), and a zero extent.
func TestComputationMustSpellARequest(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	for _, tc := range []struct {
		name    string
		format  Format
		extent  int
		noSched bool
		want    ErrKind
		mention string
	}{
		{name: "zero format", format: Format{}, extent: 32, want: KindParse, mention: "ParseFormat"},
		{name: "no schedule", format: Tiled(2), extent: 32, noSched: true, want: KindSchedule, mention: "AutoSchedule"},
		{name: "zero extent", format: Tiled(2), extent: 0, want: KindParse, mention: "non-positive extent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp := sess.MustDefine("A(i,j) = B(i,j)",
				NewTensor("A", tc.format, tc.extent, 32), NewTensor("B", Tiled(2), tc.extent, 32))
			if !tc.noSched {
				if err := comp.AutoSchedule(); err != nil {
					t.Fatal(err)
				}
			}
			_, err := comp.Compile(context.Background())
			if KindOf(err) != tc.want || !strings.Contains(fmt.Sprint(err), tc.mention) {
				t.Fatalf("err = %v (kind %v), want %v naming %s", err, KindOf(err), tc.want, tc.mention)
			}
		})
	}
	// The layout notation spells what the zero Format used to mean: the
	// whole tensor on leaf 0.
	comp := sess.MustDefine("A(i,j) = B(i,j)", NewTensor("A", MustFormat("xy->00"), 32, 32), NewTensor("B", Tiled(2), 32, 32))
	if err := comp.AutoSchedule(); err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Compile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Redistribute(NewTensor("B", Format{}, 32, 32), Tiled(2)); err == nil {
		t.Fatal("Redistribute of a tensor with a zero Format should be rejected")
	}
}

func TestSimulateWithoutData(t *testing.T) {
	f := MustFormat("xy->x")
	A := NewTensor("A", f, 1024, 1024)
	B := NewTensor("B", f, 1024, 1024)
	comp := NewSession(NewMachine(CPU, 4)).MustDefine("A(i,j) = B(i,j)", A, B)
	comp.Schedule().
		Divide("i", "io", "ii", 4).
		Reorder("io", "ii", "j").
		Distribute("io").
		Communicate("io", "A", "B")
	ctx := context.Background()
	plan, err := comp.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Simulate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies != 0 {
		t.Fatalf("aligned copy kernel should not communicate, got %d", res.Copies)
	}
	if res.Time <= 0 {
		t.Fatal("expected positive simulated time")
	}
}

func TestMachineAccessors(t *testing.T) {
	m := NewMachine(GPU, 4, 4).WithProcsPerNode(4)
	if m.Processors() != 16 {
		t.Fatalf("processors = %d", m.Processors())
	}
	if m.M.Nodes() != 4 {
		t.Fatalf("nodes = %d", m.M.Nodes())
	}
	g := m.Grid()
	if len(g) != 2 || g[0] != 4 {
		t.Fatalf("grid = %v", g)
	}
}

func TestTiledFormatRanks(t *testing.T) {
	for rank := 1; rank <= 4; rank++ {
		f := Tiled(rank)
		if got := len(f.Placement.Levels[0].TensorDims); got != rank {
			t.Fatalf("Tiled(%d) has %d dims", rank, got)
		}
	}
}
