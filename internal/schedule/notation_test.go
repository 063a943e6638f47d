package schedule

import (
	"strings"
	"testing"
)

func TestNotationDefaultNest(t *testing.T) {
	got := New(gemm()).Notation()
	want := "forall i forall j forall k A(i,j) = B(i,k) * C(k,j)"
	if got != want {
		t.Fatalf("notation = %q, want %q", got, want)
	}
}

// TestDivideRelation pins the example of §5.3: the concrete index notation
// for the divide transformation rule.
func TestDivideRelation(t *testing.T) {
	got := New(gemm()).Divide("i", "io", "ii", 4).Notation()
	if !strings.Contains(got, "forall io forall ii forall j forall k") {
		t.Fatalf("missing divided loops: %q", got)
	}
	if !strings.Contains(got, "s.t. divide(i,io,ii,4)") {
		t.Fatalf("missing divide relation: %q", got)
	}
}

func TestSUMMARelations(t *testing.T) {
	s := New(gemm()).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
		Split("k", "ko", "ki", 256).
		Reorder("ko", "ii", "ji", "ki").
		Communicate("jo", "A").
		Communicate("ko", "B", "C")
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	got := s.Notation()
	for _, frag := range []string{
		"forall io forall jo forall ko forall ii forall ji forall ki",
		"divide(i,io,ii,2)",
		"divide(j,jo,ji,2)",
		"split(k,ko,ki,256)",
		"distribute(io,jo)",
		"communicate(A,jo)",
		"communicate(B,ko)",
		"communicate(C,ko)",
	} {
		if !strings.Contains(got, frag) {
			t.Fatalf("notation missing %q in %q", frag, got)
		}
	}
}

func TestRotateRelation(t *testing.T) {
	got := New(gemm()).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{3, 3}).
		Divide("k", "ko", "ki", 3).
		Reorder("ko", "ii", "ji", "ki").
		Rotate("ko", []string{"io", "jo"}, "kos").
		Notation()
	if !strings.Contains(got, "rotate(ko,{io,jo},kos)") {
		t.Fatalf("missing rotate relation: %q", got)
	}
}

func TestCollapseRelation(t *testing.T) {
	got := New(gemm()).Collapse("i", "j", "f").Notation()
	if !strings.Contains(got, "collapse(i,j,f)") {
		t.Fatalf("missing collapse relation: %q", got)
	}
}
