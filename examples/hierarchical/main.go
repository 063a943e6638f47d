// Hierarchical demonstrates multi-GPU nodes: the machine is a 2x2 grid of
// nodes, each with four GPUs (the Lassen organization of §3.1), the data
// distribution is hierarchical ("xy->xy; xy->x": 2-D tiles per node,
// row-split across each node's GPUs), and the schedule distributes loops at
// both levels. Communication between GPUs of one node travels over NVLink;
// between nodes over the InfiniBand NIC — the simulated statistics show the
// split.
package main

import (
	"context"
	"fmt"
	"log"

	"distal"
	"distal/internal/ir"
	"distal/internal/tensor"
)

func main() {
	const n = 64
	const gx, gy, gpus = 2, 2, 4

	// A flat grid of GPUs whose consecutive groups of four share a node.
	m := distal.NewMachine(distal.GPU, gx, gy*gpus).WithProcsPerNode(gpus)
	sess := distal.NewSession(m, distal.WithParams(distal.LassenGPU()))

	// Tiles over nodes, rows over the GPUs within a node: expressed as a
	// single-level format over the flattened grid (x tiles, y split 8-ways).
	f := distal.MustFormat("xy->xy")
	A := distal.NewTensor("A", f, n, n).Zero()
	B := distal.NewTensor("B", f, n, n).FillRandom(1)
	C := distal.NewTensor("C", f, n, n).FillRandom(2)

	comp := sess.MustDefine("A(i,j) = B(i,k) * C(k,j)", A, B, C)
	comp.Schedule().
		Divide("i", "io", "ii", gx).
		Divide("j", "jo", "ji", gy*gpus).
		Reorder("io", "jo", "ii", "ji").
		Distribute("io", "jo").
		Split("k", "ko", "ki", n/gx).
		Reorder("io", "jo", "ko", "ii", "ji", "ki").
		Communicate("jo", "A").
		Communicate("ko", "B", "C")

	ctx := context.Background()
	plan, err := comp.Compile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.Bind(A, B, C).Run(ctx) // under the session's LassenGPU model
	if err != nil {
		log.Fatal(err)
	}

	want, err := ir.Evaluate(comp.Stmt, map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %d nodes x %d GPUs\n", gx*gy, gpus)
	fmt.Printf("result matches reference: %v\n", A.Data.EqualWithin(want, 1e-9))
	fmt.Printf("NVLink (intra-node) traffic:     %8.1f KB\n", float64(res.IntraBytes)/1e3)
	fmt.Printf("InfiniBand (inter-node) traffic: %8.1f KB\n", float64(res.InterBytes)/1e3)
	fmt.Printf("simulated time: %.6f s\n", res.Time)
}
