// Hierarchical demonstrates multi-GPU nodes: the machine is a flat 2x8 grid
// of GPUs whose consecutive groups of four share a node (the Lassen
// organization of §3.1), so four nodes of four GPUs. It runs SUMMA there,
// written as a request by internal/algorithms' SummaRequest, with one
// single-level format over the flat grid: A, B and C are tiled 2x8, one tile
// per GPU, and nothing in the format or schedule names the nodes. The node
// grouping shows only in where copies travel: between GPUs of one node over
// NVLink, between nodes over the InfiniBand NIC — the simulated statistics
// show the split.
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

func main() {
	const n = 64
	const gx, gy, gpus = 2, 2, 4

	// A flat grid of GPUs whose consecutive groups of four share a node.
	m := algorithms.MatmulConfig{GPU: true, ProcsPerNode: gpus}.MachineFor(gx, gy*gpus)
	sess := distal.NewSession(&distal.Machine{M: m}, distal.WithParams(distal.LassenGPU()))

	// SUMMA over the flattened grid, as a single-level format (x tiles, y
	// split 8 ways); k streams in chunks of n/gx.
	req := algorithms.SummaRequest(n, gx, gy*gpus, n/gx)
	ctx := context.Background()
	plan, err := sess.Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	A := distal.NewTensor("A", distal.MustFormat(req.Formats["A"]), n, n).Zero()
	B := distal.NewTensor("B", distal.MustFormat(req.Formats["B"]), n, n).FillRandom(1)
	C := distal.NewTensor("C", distal.MustFormat(req.Formats["C"]), n, n).FillRandom(2)
	res, err := plan.Bind(A, B, C).Run(ctx) // under the session's LassenGPU model
	if err != nil {
		log.Fatal(err)
	}

	want, err := ir.Evaluate(ir.MustParse(req.Stmt), map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %d nodes x %d GPUs\n", gx*gy, gpus)
	fmt.Printf("result matches reference: %v\n", A.Data.EqualWithin(want, 1e-9))
	fmt.Printf("NVLink (intra-node) traffic:     %8.1f KB\n", float64(res.IntraBytes)/1e3)
	fmt.Printf("InfiniBand (inter-node) traffic: %8.1f KB\n", float64(res.InterBytes)/1e3)
	fmt.Printf("simulated time: %.6f s\n", res.Time)
}
