// Mttkrp runs the matricized-tensor-times-Khatri-Rao-product kernel
// A(i,l) = B(i,j,k)*C(j,l)*D(k,l) with the algorithm of Ballard et al. that
// the paper implements in §7.2: the 3-tensor stays in place on a processor
// cube, the factor matrices are partitioned along their contracted modes
// and replicated elsewhere, and partial results reduce into A's owners. The
// example compiles the request internal/algorithms writes for the kernel,
// validates the distributed result and then weak-scales the kernel on the
// simulated machine.
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

// compile compiles MTTKRP on I=J=K=dim, L=l over a g x g x g processor
// cube: the request internal/algorithms writes for the kernel.
func compile(ctx context.Context, dim, l, g int) (*distal.Plan, distal.Request) {
	m, req, err := algorithms.MTTKRPRequest(algorithms.HigherConfig{I: dim, J: dim, K: dim, L: l, Procs: g * g * g})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := distal.NewSession(&distal.Machine{M: m}).Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	return plan, req
}

func main() {
	ctx := context.Background()

	// Small validated run.
	plan, req := compile(ctx, 8, 4, 2)
	declare := func(name string) *distal.Tensor {
		return distal.NewTensor(name, distal.MustFormat(req.Formats[name]), req.Shapes[name]...)
	}
	A, B, C, D := declare("A").Zero(), declare("B").FillRandom(1), declare("C").FillRandom(2), declare("D").FillRandom(3)
	if _, err := plan.Bind(A, B, C, D).Run(ctx); err != nil {
		log.Fatal(err)
	}
	want, err := ir.Evaluate(ir.MustParse(req.Stmt), map[string]*tensor.Dense{"B": B.Data, "C": C.Data, "D": D.Data})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed MTTKRP matches reference: %v\n", A.Data.EqualWithin(want, 1e-9))

	// Simulated weak scaling (per-processor work constant).
	fmt.Println("\nweak scaling on the simulated Lassen CPU machine:")
	fmt.Printf("%-8s %-12s %-14s %-12s\n", "procs", "dim", "GFLOP/s", "comm GB")
	for _, g := range []int{1, 2, 4} {
		dim := 256 * g
		p, _ := compile(ctx, dim, 32, g)
		res, err := p.Simulate(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-12d %-14.1f %-12.3f\n",
			g*g*g, dim, res.GFlopsPerSec(), float64(res.InterBytes)/1e9)
	}
}
