// Cannon demonstrates the rotate scheduling command: it compiles Cannon's
// algorithm (Fig. 9 / Fig. 11 of the paper), written as a request by
// internal/algorithms, on a 3x3 grid and prints the communication pattern
// of the B matrix at each step, reproducing Figure 12 — every processor
// reads B(io, (ko+io+jo) mod 3) and receives it from a neighbor, never from
// a broadcast hotspot.
package main

import (
	"context"
	"fmt"
	"log"

	"distal"
	"distal/internal/algorithms"
)

func main() {
	const n, g = 24, 3
	m, req, err := algorithms.MatmulRequest(algorithms.Cannon, algorithms.MatmulConfig{N: n, Procs: g * g})
	if err != nil {
		log.Fatal(err)
	}
	sess := distal.NewSession(&distal.Machine{M: m})
	ctx := context.Background()
	plan, err := sess.Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	A := distal.NewTensor("A", distal.MustFormat(req.Formats["A"]), n, n).Zero()
	B := distal.NewTensor("B", distal.MustFormat(req.Formats["B"]), n, n).FillRandom(1)
	C := distal.NewTensor("C", distal.MustFormat(req.Formats["C"]), n, n).FillRandom(2)
	res, err := plan.Bind(A, B, C).Run(ctx, distal.WithTrace())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("B-tile needed by each processor at each rotated step kos")
	fmt.Println("(tile indices match Figure 12: B(io, (kos+io+jo) mod 3)):")
	for kos := 0; kos < g; kos++ {
		fmt.Printf("kos = %d\n", kos)
		for io := 0; io < g; io++ {
			for jo := 0; jo < g; jo++ {
				fmt.Printf("  B(%d,%d)", io, (kos+io+jo)%g)
			}
			fmt.Println()
		}
	}

	fmt.Printf("\ntrace: %d copies; per-step sources for region B:\n", len(res.Trace))
	distal.SortTrace(res.Trace)
	shown := 0
	for _, c := range res.Trace {
		if c.Region != "B" || shown >= 9 {
			continue
		}
		fmt.Printf("  %s: B%s proc %d -> proc %d\n", c.Launch, c.Rect, c.Src, c.Dst)
		shown++
	}
	fmt.Printf("\nsimulated time %.6f s, inter-node %.1f KB\n",
		res.Time, float64(res.InterBytes)/1e3)
}
