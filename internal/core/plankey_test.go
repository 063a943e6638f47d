package core

import (
	"testing"

	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/schedule"
)

func keyInput(n, gx, gy int, schedText string) Input {
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	m := machine.New(machine.NewGrid(gx, gy), machine.SysMem, machine.CPU)
	decls := map[string]*TensorDecl{}
	for _, name := range []string{"A", "B", "C"} {
		decls[name] = &TensorDecl{
			Name:      name,
			Shape:     []int{n, n},
			Placement: distnot.MustParsePlacement("xy->xy"),
		}
	}
	s, err := schedule.FromText(stmt, schedText)
	if err != nil {
		panic(err)
	}
	return Input{Stmt: stmt, Machine: m, Tensors: decls, Schedule: s}
}

const keySched = "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) distribute(io,jo) communicate(jo,A,B,C)"

func TestPlanKeyDeterministic(t *testing.T) {
	a := PlanKey(keyInput(64, 2, 2, keySched))
	b := PlanKey(keyInput(64, 2, 2, keySched))
	if a != b {
		t.Fatalf("equal inputs produced different keys: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
}

func TestPlanKeyDiscriminates(t *testing.T) {
	base := PlanKey(keyInput(64, 2, 2, keySched))
	for name, in := range map[string]Input{
		"shape":    keyInput(128, 2, 2, keySched),
		"machine":  keyInput(64, 4, 1, keySched),
		"schedule": keyInput(64, 2, 2, "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) distribute(io,jo) communicate(io,A,B,C)"),
	} {
		if PlanKey(in) == base {
			t.Errorf("varying %s did not change the plan key", name)
		}
	}
	other := keyInput(64, 2, 2, keySched)
	other.Tensors["B"].Placement = distnot.MustParsePlacement("xy->x*")
	if PlanKey(other) == base {
		t.Error("varying a placement did not change the plan key")
	}
}

// TestPlanKeyHashesLeafCommands: parallelize and substitute change no
// lowering, but they are commands of the schedule text, so the plan key
// hashes them. The key is pinned: keeping them only in the command log
// leaves every plan key where it was.
func TestPlanKeyHashesLeafCommands(t *testing.T) {
	in := keyInput(64, 2, 2, keySched+" parallelize(ii) substitute(ji,k,BLAS.GEMM)")
	got := PlanKey(in)
	if got == PlanKey(keyInput(64, 2, 2, keySched)) {
		t.Fatal("parallelize/substitute did not reach the plan key")
	}
	const want = "0414fd38f089bbc87f4068e7b5c35ca6182829946ca5a8a9542dc6ff8424fc64"
	if got != want {
		t.Fatalf("plan key = %s, want %s", got, want)
	}
}
