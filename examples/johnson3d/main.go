// Johnson3d runs Johnson's 3D matrix-multiplication algorithm (§4.4): the
// input matrices are fixed to faces of a processor cube with tensor
// distribution notation (xy->xy0, xz->x0z, zy->0yz), all three loops are
// distributed, and partial products reduce into the owners of A. The
// example validates the result and contrasts the communication volume with
// SUMMA on the same processor count. Both algorithms are the requests
// internal/algorithms writes for them.
package main

import (
	"context"
	"fmt"
	"log"

	"distal"
	"distal/internal/algorithms"
	"distal/internal/ir"
	"distal/internal/tensor"
)

// run2D simulates SUMMA on a 4x2 grid, k streaming in chunks of n/4.
func run2D(n int) (*distal.Result, error) {
	m := algorithms.MatmulConfig{}.MachineFor(4, 2)
	ctx := context.Background()
	plan, err := distal.NewSession(&distal.Machine{M: m}).Compile(ctx, algorithms.SummaRequest(n, 4, 2, n/4))
	if err != nil {
		return nil, err
	}
	return plan.Simulate(ctx)
}

func main() {
	const n, g = 32, 2 // 2x2x2 processor cube

	m, req, err := algorithms.MatmulRequest(algorithms.Johnson, algorithms.MatmulConfig{N: n, Procs: g * g * g})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	plan, err := distal.NewSession(&distal.Machine{M: m}).Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	A := distal.NewTensor("A", distal.MustFormat(req.Formats["A"]), n, n).Zero()
	B := distal.NewTensor("B", distal.MustFormat(req.Formats["B"]), n, n).FillRandom(1)
	C := distal.NewTensor("C", distal.MustFormat(req.Formats["C"]), n, n).FillRandom(2)
	res, err := plan.Bind(A, B, C).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	want, err := ir.Evaluate(ir.MustParse(req.Stmt), map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
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
