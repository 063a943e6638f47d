package program

import (
	"strings"
	"testing"

	"distal/internal/ir"
	"distal/internal/tensor"
)

func stmts(src ...string) []Statement {
	out := make([]Statement, len(src))
	for i, s := range src {
		out[i] = Statement{Stmt: s}
	}
	return out
}

func TestParseValidation(t *testing.T) {
	nn := []int{8, 8}
	cases := []struct {
		name   string
		one    Statement // the statement form, when stmts is empty
		stmts  []Statement
		shapes map[string][]int
		want   string // substring of the expected error; "" means success
	}{
		{
			name:   "chain ok",
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)", "E(i,j) = D(i,k) * C(k,j)"),
			shapes: map[string][]int{"A": nn, "B": nn, "C": nn},
		},
		{
			name:   "intermediate read twice",
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)", "E(i,j) = D(i,k) * D(k,j)"),
			shapes: map[string][]int{"A": nn, "B": nn},
		},
		{
			name:  "empty program",
			stmts: nil,
			want:  "expected identifier",
		},
		{
			name:   "statement ok",
			one:    Statement{Stmt: "A(i,j) = B(i,k) * C(k,j)", Formats: map[string]string{"A": "xy->xy"}},
			shapes: map[string][]int{"A": nn, "B": nn, "C": nn},
		},
		{
			name:   "statement scalar output",
			one:    Statement{Stmt: "s = A(i,j) * B(i,j)"},
			shapes: map[string][]int{"s": {1}, "A": nn, "B": nn},
		},
		{
			name:   "statement and stmts",
			one:    Statement{Schedule: "distribute(i)"},
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)"),
			shapes: map[string][]int{"A": nn, "B": nn},
			want:   "the top-level stmt, formats and schedule must be empty",
		},
		{
			name:   "statement without output shape",
			one:    Statement{Stmt: "A(i,j) = B(i,k) * C(k,j)"},
			shapes: map[string][]int{"B": nn, "C": nn},
			want:   "request has no shape for tensor A",
		},
		{
			name:   "statement output shape disagrees",
			one:    Statement{Stmt: "A(i,j) = B(i,k) * C(k,j)"},
			shapes: map[string][]int{"A": {8, 4}, "B": nn, "C": nn},
			want:   "extent",
		},
		{
			name:   "statement non-positive extent",
			one:    Statement{Stmt: "A(i) = B(i)"},
			shapes: map[string][]int{"A": {0}, "B": {0}},
			want:   "non-positive extent",
		},
		{
			name:   "statement unknown shapes key",
			one:    Statement{Stmt: "A(i) = B(i)"},
			shapes: map[string][]int{"A": {8}, "B": {8}, "X": {8}},
			want:   "request Shapes names X",
		},
		{
			name:   "statement unknown formats key",
			one:    Statement{Stmt: "A(i) = B(i)", Formats: map[string]string{"X": "x->x"}},
			shapes: map[string][]int{"A": {8}, "B": {8}},
			want:   "request Formats names X",
		},
		{
			name:   "duplicate assignment",
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)", "D(i,j) = A(i,k) * B(k,j)"),
			shapes: map[string][]int{"A": nn, "B": nn},
			want:   "assigned by statements 0 and 1",
		},
		{
			name:   "intermediate declared in shapes",
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)", "E(i,j) = D(i,k) * C(k,j)"),
			shapes: map[string][]int{"A": nn, "B": nn, "C": nn, "D": nn},
			want:   "Shapes declares D, which statement 0 computes",
		},
		{
			name:   "unknown shapes key",
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)"),
			shapes: map[string][]int{"A": nn, "B": nn, "X": nn},
			want:   "Shapes declares X, which no statement mentions",
		},
		{
			name:   "missing leaf shape",
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)"),
			shapes: map[string][]int{"A": nn},
			want:   "no shape for tensor B",
		},
		{
			name:   "dependency cycle",
			stmts:  stmts("D(i,j) = E(i,k) * A(k,j)", "E(i,j) = D(i,k) * A(k,j)"),
			shapes: map[string][]int{"A": nn},
			want:   "dependency cycle",
		},
		{
			name:   "self read",
			stmts:  stmts("D(i,j) = D(i,k) * A(k,j)"),
			shapes: map[string][]int{"A": nn},
			want:   "reads its own output D",
		},
		{
			name: "formats name foreign tensor",
			stmts: []Statement{
				{Stmt: "D(i,j) = A(i,k) * B(k,j)", Formats: map[string]string{"C": "xy->xy"}},
				{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
			},
			shapes: map[string][]int{"A": nn, "B": nn, "C": nn},
			want:   "statement 0 Formats names C",
		},
		{
			name:   "shape conflict across statements",
			stmts:  stmts("D(i,j) = A(i,k) * B(k,j)", "E(i,j) = D(i,k) * C(k,j)"),
			shapes: map[string][]int{"A": {8, 4}, "B": {4, 8}, "C": {4, 8}},
			want:   "indexes extents",
		},
		{
			name:   "scalar output",
			stmts:  stmts("s = A(i,j) * B(i,j)"),
			shapes: map[string][]int{"A": nn, "B": nn},
			want:   "scalar outputs are not supported",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRequest(tc.one, tc.stmts, tc.shapes)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Parse: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseShapeInferenceAndOrder(t *testing.T) {
	// Consumer written before its producer: the stage order must fix it up
	// while Inputs stays in source first-use order.
	p, err := Parse(stmts(
		"E(i,l) = D(i,j) * C(j,l)",
		"D(i,j) = A(i,k) * B(k,j)",
	), map[string][]int{"A": {4, 6}, "B": {6, 8}, "C": {8, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stages[0].Index; got != 1 {
		t.Fatalf("first stage is statement %d, want 1 (the producer)", got)
	}
	wantShapes := map[string][]int{"D": {4, 8}, "E": {4, 10}}
	for name, want := range wantShapes {
		got := p.Shapes[name]
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("inferred shape of %s = %v, want %v", name, got, want)
		}
	}
	if got := strings.Join(p.Inputs(), ","); got != "C,A,B" {
		t.Fatalf("Inputs = %s, want C,A,B (source first-use order)", got)
	}
	if p.Output() != "D" {
		t.Fatalf("Output = %s, want D (the last source statement's LHS)", p.Output())
	}
}

// TestParseStatementForm: a single statement is a one-stage program that
// binds every tensor in statement order, its output included, and
// evaluates as the reference interpreter evaluates the statement.
func TestParseStatementForm(t *testing.T) {
	shapes := map[string][]int{"A": {4, 5}, "B": {4, 3}, "C": {3, 5}}
	p, err := ParseRequest(Statement{Stmt: "A(i,j) = B(i,k) * C(k,j)"}, nil, shapes)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 1 || p.Output() != "A" || strings.Join(p.Inputs(), ",") != "A,B,C" {
		t.Fatalf("stages %d, output %s, inputs %v; want 1, A, [A B C]", len(p.Stages), p.Output(), p.Inputs())
	}
	in := map[string]*tensor.Dense{"A": tensor.New("A", 4, 5), "B": tensor.New("B", 4, 3), "C": tensor.New("C", 3, 5)}
	in["B"].FillRandom(1)
	in["C"].FillRandom(2)
	got, err := Evaluate(p, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Evaluate(p.Stages[0].Assign, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got["A"].EqualWithin(want, 0) {
		t.Fatal("a one-stage program evaluates differently from its statement")
	}
	if _, err := Parse(nil, nil); err == nil || !strings.Contains(err.Error(), "empty statement list") {
		t.Fatalf("Parse of no statements: %v", err)
	}
}

func TestEvaluateChain(t *testing.T) {
	const n = 6
	shapes := map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}}
	p, err := Parse(stmts("D(i,j) = A(i,k) * B(k,j)", "E(i,j) = D(i,k) * C(k,j)"), shapes)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]*tensor.Dense{}
	for i, name := range []string{"A", "B", "C"} {
		d := tensor.New(name, n, n)
		d.FillRandom(int64(i + 1))
		in[name] = d
	}
	outs, err := Evaluate(p, in)
	if err != nil {
		t.Fatal(err)
	}
	// E must equal (A·B)·C computed by hand.
	want := tensor.New("E", n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				d := 0.0
				for m := 0; m < n; m++ {
					d += in["A"].At(i, m) * in["B"].At(m, k)
				}
				sum += d * in["C"].At(k, j)
			}
			want.Set(sum, i, j)
		}
	}
	if !outs["E"].EqualWithin(want, 1e-9) {
		t.Fatalf("chain evaluation diverges from reference: max abs diff %g", outs["E"].MaxAbsDiff(want))
	}
	if outs["D"] == nil {
		t.Fatal("Evaluate did not return intermediate D")
	}
}
