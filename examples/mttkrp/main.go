// Mttkrp runs the matricized-tensor-times-Khatri-Rao-product kernel
// A(i,l) = B(i,j,k)*C(j,l)*D(k,l) with the algorithm of Ballard et al. that
// the paper implements in §7.2: the 3-tensor stays in place on a processor
// cube, the factor matrices are partitioned along their contracted modes
// and replicated elsewhere, and partial results reduce into A's owners. The
// example validates the distributed result and then weak-scales the kernel
// on the simulated machine.
package main

import (
	"context"
	"fmt"
	"log"

	"distal"
	"distal/internal/ir"
	"distal/internal/tensor"
)

func build(i, j, k, l, g int, seed bool) (*distal.Computation, []*distal.Tensor) {
	sess := distal.NewSession(distal.NewMachine(distal.CPU, g, g, g))
	A := distal.NewTensor("A", distal.MustFormat("ab->a00"), i, l)
	B := distal.NewTensor("B", distal.MustFormat("abc->abc"), i, j, k)
	C := distal.NewTensor("C", distal.MustFormat("ab->*a*"), j, l)
	D := distal.NewTensor("D", distal.MustFormat("ab->**a"), k, l)
	if seed {
		A.Zero()
		B.FillRandom(1)
		C.FillRandom(2)
		D.FillRandom(3)
	}
	comp := sess.MustDefine("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)", A, B, C, D)
	comp.Schedule().
		Divide("i", "io", "ii", g).Divide("j", "jo", "ji", g).Divide("k", "ko", "ki", g).
		Reorder("io", "jo", "ko", "ii", "ji", "ki", "l").
		Distribute("io", "jo", "ko").
		Communicate("ko", "A", "B", "C", "D")
	return comp, []*distal.Tensor{A, B, C, D}
}

func main() {
	ctx := context.Background()

	// Small validated run.
	comp, tensors := build(8, 8, 8, 4, 2, true)
	plan, err := comp.Compile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := plan.Bind(tensors...).Run(ctx); err != nil {
		log.Fatal(err)
	}
	inputs := map[string]*tensor.Dense{}
	for _, t := range tensors[1:] {
		inputs[t.Name] = t.Data
	}
	want, err := ir.Evaluate(comp.Stmt, inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed MTTKRP matches reference: %v\n", tensors[0].Data.EqualWithin(want, 1e-9))

	// Simulated weak scaling (per-processor work constant).
	fmt.Println("\nweak scaling on the simulated Lassen CPU machine:")
	fmt.Printf("%-8s %-12s %-14s %-12s\n", "procs", "dim", "GFLOP/s", "comm GB")
	for _, g := range []int{1, 2, 4} {
		dim := 256 * g
		c, _ := build(dim, dim, dim, 32, g, false)
		p, err := c.Compile(ctx)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.Simulate(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-12d %-14.1f %-12.3f\n",
			g*g*g, dim, res.GFlopsPerSec(), float64(res.InterBytes)/1e9)
	}
}
