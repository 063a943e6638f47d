package distal

import (
	"context"
	"strings"
	"testing"
)

func TestRedistributeRowsToTiles(t *testing.T) {
	const n = 16
	sess := NewSession(NewMachine(CPU, 2, 2))
	src := NewTensor("T", MustFormat("xy->x*"), n, n).FillRandom(9)
	plan, dst, err := sess.Redistribute(src, Tiled(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Bind(dst, src).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Data.EqualWithin(src.Data, 0) {
		t.Fatal("redistributed data differs from source")
	}
	if res.Copies == 0 {
		t.Fatal("row->tile layout change must move data")
	}
}

func TestRedistributeIdentityLayoutIsCheap(t *testing.T) {
	// Moving between identical layouts should move (almost) nothing
	// compared to a genuine layout change.
	const n = 512
	sess := NewSession(NewMachine(CPU, 4))
	rows := MustFormat("xy->x")
	src := NewTensor("T", rows, n, n)
	same, _, err := sess.RedistributeCost(src, rows)
	if err != nil {
		t.Fatal(err)
	}
	cols, _, err := sess.RedistributeCost(src, MustFormat("xy->y"))
	if err != nil {
		t.Fatal(err)
	}
	if same >= cols {
		t.Fatalf("same-layout move (%d B) should be cheaper than transpose-like change (%d B)", same, cols)
	}
	if same != 0 {
		t.Fatalf("identical layouts should move 0 bytes, moved %d", same)
	}
}

func TestRedistributeToReplicated(t *testing.T) {
	const n = 8
	sess := NewSession(NewMachine(CPU, 2, 2))
	src := NewTensor("T", MustFormat("xy->xy"), n, n).FillRandom(4)
	plan, dst, err := sess.Redistribute(src, MustFormat("xy->x*"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bind(dst, src).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !dst.Data.EqualWithin(src.Data, 0) {
		t.Fatal("replicated redistribution corrupted data")
	}
}

func TestRedistribute3Tensor(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4))
	src := NewTensor("T", MustFormat("xyz->x"), 8, 6, 4).FillRandom(3)
	plan, dst, err := sess.Redistribute(src, MustFormat("xyz->y"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bind(dst, src).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !dst.Data.EqualWithin(src.Data, 0) {
		t.Fatal("3-tensor redistribution corrupted data")
	}
}

func TestRedistributeErrors(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2))

	t.Run("rank 0", func(t *testing.T) {
		bad := NewTensor("T", MustFormat("x->x"))
		if _, _, err := sess.Redistribute(bad, MustFormat("x->x")); err == nil {
			t.Fatal("rank-0 tensor should be rejected")
		}
	})

	t.Run("rank above 6", func(t *testing.T) {
		bad := NewTensor("T", MustFormat("x->x"), 2, 2, 2, 2, 2, 2, 2)
		if _, _, err := sess.Redistribute(bad, MustFormat("x->x")); err == nil {
			t.Fatal("rank-7 tensor should be rejected")
		}
	})

	t.Run("unparseable destination format", func(t *testing.T) {
		if _, err := ParseFormat("xy->>x"); err == nil {
			t.Fatal("ParseFormat should reject xy->>x")
		}
		dst, err := ParseFormat("xy->>x")
		if err == nil {
			t.Fatal("expected parse error")
		}
		// The zero Format a failed parse leaves behind must be rejected by
		// Redistribute rather than compiled as an implicit layout.
		src := NewTensor("T", MustFormat("xy->x"), 8, 8)
		if _, _, err := sess.Redistribute(src, dst); err == nil {
			t.Fatal("empty destination format should be rejected")
		}
	})

	t.Run("destination format wrong rank for machine", func(t *testing.T) {
		// A 2-level placement on a flat 1-D machine fails compilation.
		src := NewTensor("T", MustFormat("xy->x"), 8, 8)
		if _, _, err := sess.Redistribute(src, MustFormat("xy->xy")); err == nil {
			t.Fatal("placement rank exceeding the machine rank should be rejected")
		}
	})
}

func TestSessionRedistributeErrors(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2))
	bad := NewTensor("T", MustFormat("x->x"))
	if _, _, err := sess.Redistribute(bad, MustFormat("x->x")); err == nil {
		t.Fatal("rank-0 tensor should be rejected through the session path")
	}
	if _, _, err := sess.RedistributeCost(bad, MustFormat("x->x")); err == nil {
		t.Fatal("RedistributeCost should propagate the error")
	}
}

// TestLayoutChangeRankLimit: a rank-7 tensor is refused with one message
// both by Redistribute and by the repartition a statement list inserts
// between disagreeing formats, as an error rather than a panic.
func TestLayoutChangeRankLimit(t *testing.T) {
	const want = "tensor T has rank 7; a layout change supports ranks 1..6"
	sess := NewSession(NewMachine(CPU, 2))
	shape := []int{2, 2, 2, 2, 2, 2, 2}
	_, _, err := sess.Redistribute(NewTensor("T", MustFormat("abcdefg->a"), shape...), MustFormat("abcdefg->a"))
	if err == nil || KindOf(err) != KindParse || err.Error() != "distal: redistribute: "+want {
		t.Fatalf("Redistribute: %v (kind %v), want a parse error %q", err, KindOf(err), want)
	}
	idx := "a,b,c,d,e,f,g"
	_, err = sess.Compile(context.Background(), Request{
		Shapes: map[string][]int{"S": shape},
		Stmts: []Statement{
			{Stmt: "T(" + idx + ") = S(" + idx + ")", Formats: map[string]string{"S": "abcdefg->a", "T": "abcdefg->a"}},
			{Stmt: "U(" + idx + ") = T(" + idx + ")", Formats: map[string]string{"T": "abcdefg->b", "U": "abcdefg->b"}},
		},
	})
	if err == nil || KindOf(err) != KindParse || !strings.Contains(err.Error(), want) {
		t.Fatalf("statement list: %v (kind %v), want a parse error containing %q", err, KindOf(err), want)
	}
}
