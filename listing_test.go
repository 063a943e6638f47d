package distal

import (
	"strings"
	"testing"

	"distal/internal/core"
	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/schedule"
)

// listing renders a hand-compiled program through Plan.Listing.
func listing(t *testing.T, in core.Input, maxPoints int) string {
	t.Helper()
	prog, err := core.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	return (&Plan{planData: &planData{prog: prog}}).Listing(maxPoints)
}

// TestGoldenSUMMAListing pins the generated program for a 2x2 SUMMA, the
// compiler's canonical output.
func TestGoldenSUMMAListing(t *testing.T) {
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU)
	tiled := distnot.NewPlacement(distnot.MustParse("xy->xy"))
	decl := func(name string) *core.TensorDecl {
		return &core.TensorDecl{Name: name, Shape: []int{4, 4}, Placement: tiled}
	}
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
		Split("k", "ko", "ki", 2).
		Reorder("ko", "ii", "ji", "ki").
		Communicate("jo", "A").
		Communicate("ko", "B", "C")
	got := listing(t, core.Input{
		Stmt: stmt, Machine: m,
		Tensors:  map[string]*core.TensorDecl{"A": decl("A"), "B": decl("B"), "C": decl("C")},
		Schedule: s,
	}, 0)
	want := `program "A(i,j) = B(i,k) * C(k,j)" on Grid(2,2)[CPU/SysMem]
region A[4 4] place xy->xy
region B[4 4] place xy->xy
region C[4 4] place xy->xy
index_launch A[ko=0] over Grid(2,2)
  task[0 0]: A[[0,2)x[0,2) Red+] B[[0,2)x[0,2) RO] C[[0,2)x[0,2) RO]
  task[0 1]: A[[0,2)x[2,4) Red+] B[[0,2)x[0,2) RO] C[[0,2)x[2,4) RO]
  task[1 0]: A[[2,4)x[0,2) Red+] B[[2,4)x[0,2) RO] C[[0,2)x[0,2) RO]
  task[1 1]: A[[2,4)x[2,4) Red+] B[[2,4)x[0,2) RO] C[[0,2)x[2,4) RO]
index_launch A[ko=1] over Grid(2,2)
  task[0 0]: A[[0,2)x[0,2) Red+] B[[0,2)x[2,4) RO] C[[2,4)x[0,2) RO]
  task[0 1]: A[[0,2)x[2,4) Red+] B[[0,2)x[2,4) RO] C[[2,4)x[2,4) RO]
  task[1 0]: A[[2,4)x[0,2) Red+] B[[2,4)x[2,4) RO] C[[2,4)x[0,2) RO]
  task[1 1]: A[[2,4)x[2,4) Red+] B[[2,4)x[2,4) RO] C[[2,4)x[2,4) RO]
`
	if got != want {
		t.Fatalf("golden listing mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestListingTruncation(t *testing.T) {
	stmt := ir.MustParse("A(i) = B(i)")
	m := machine.New(machine.NewGrid(8), machine.SysMem, machine.CPU)
	place := distnot.NewPlacement(distnot.MustParse("x->x"))
	s := schedule.New(stmt).
		Divide("i", "io", "ii", 8).
		Distribute("io").
		Communicate("io", "A", "B")
	got := listing(t, core.Input{
		Stmt: stmt, Machine: m,
		Tensors: map[string]*core.TensorDecl{
			"A": {Name: "A", Shape: []int{16}, Placement: place},
			"B": {Name: "B", Shape: []int{16}, Placement: place},
		},
		Schedule: s,
	}, 2)
	if !strings.Contains(got, "... 6 more points") {
		t.Fatalf("missing truncation marker:\n%s", got)
	}
}
