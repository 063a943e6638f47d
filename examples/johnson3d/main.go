// Johnson3d runs Johnson's 3D matrix-multiplication algorithm (§4.4): the
// input matrices are fixed to faces of a processor cube with tensor
// distribution notation (xy->xy0, xz->x0z, zy->0yz), all three loops are
// distributed, and partial products reduce into the owners of A. The
// example validates the result and contrasts the communication volume with
// SUMMA on the same processor count.
package main

import (
	"context"
	"fmt"
	"log"

	"distal"
	"distal/internal/ir"
	"distal/internal/tensor"
)

func run2D(n int) (*distal.Result, error) {
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 4, 2))
	f := distal.Tiled(2)
	A := distal.NewTensor("A", f, n, n).Zero()
	B := distal.NewTensor("B", f, n, n).FillRandom(1)
	C := distal.NewTensor("C", f, n, n).FillRandom(2)
	comp := sess.MustDefine("A(i,j) = B(i,k) * C(k,j)", A, B, C)
	comp.Schedule().
		Divide("i", "io", "ii", 4).Divide("j", "jo", "ji", 2).
		Reorder("io", "jo", "ii", "ji").Distribute("io", "jo").
		Split("k", "ko", "ki", n/4).
		Reorder("io", "jo", "ko", "ii", "ji", "ki").
		Communicate("jo", "A").Communicate("ko", "B", "C")
	ctx := context.Background()
	plan, err := comp.Compile(ctx)
	if err != nil {
		return nil, err
	}
	return plan.Simulate(ctx)
}

func main() {
	const n, g = 32, 2 // 2x2x2 processor cube

	sess := distal.NewSession(distal.NewMachine(distal.CPU, g, g, g))
	A := distal.NewTensor("A", distal.MustFormat("xy->xy0"), n, n).Zero()
	B := distal.NewTensor("B", distal.MustFormat("xz->x0z"), n, n).FillRandom(1)
	C := distal.NewTensor("C", distal.MustFormat("zy->0yz"), n, n).FillRandom(2)

	comp := sess.MustDefine("A(i,j) = B(i,k) * C(k,j)", A, B, C)
	comp.Schedule().
		Divide("i", "io", "ii", g).Divide("j", "jo", "ji", g).Divide("k", "ko", "ki", g).
		Reorder("io", "jo", "ko", "ii", "ji", "ki").
		Distribute("io", "jo", "ko").
		Communicate("ko", "A", "B", "C")

	ctx := context.Background()
	plan, err := comp.Compile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.Bind(A, B, C).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	want, err := ir.Evaluate(comp.Stmt, map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Johnson's on a %dx%dx%d cube, n=%d\n", g, g, g, n)
	fmt.Printf("result matches reference: %v\n", A.Data.EqualWithin(want, 1e-9))
	fmt.Printf("communication: %.1f KB moved in %d copies\n",
		float64(res.InterBytes+res.IntraBytes)/1e3, res.Copies)

	summa, err := run2D(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SUMMA on 8 processors moves %.1f KB in %d copies\n",
		float64(summa.InterBytes+summa.IntraBytes)/1e3, summa.Copies)
	fmt.Println("(3D algorithms trade replicated memory for less communication)")
}
