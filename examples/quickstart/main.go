// Quickstart reproduces Figure 2 of the DISTAL paper through the session
// API: a matrix multiplication scheduled as the SUMMA algorithm on a 2-D
// processor grid, executed on real data, validated against the sequential
// reference, and timed on the simulated Lassen CPU cost model. It then
// shows the service-shaped side of the API: the same workload as a pure
// data Request whose repeated execution hits the session's plan cache.
//
// The other examples compile the requests internal/algorithms writes for
// the paper's algorithms. This one spells its SUMMA schedule out through
// the fluent Schedule() chain on purpose: walking through the fluent API of
// Fig. 2 is what it is for.
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
	const n, gx, gy = 64, 2, 2

	// A session owns the target machine — a 2-D grid of processors
	// (Fig. 2 line 4) — plus the default cost model and the plan cache.
	m := distal.NewMachine(distal.CPU, gx, gy)
	sess := distal.NewSession(m, distal.WithParams(distal.LassenCPU()))

	// A tensor's format describes how it is distributed onto m: a
	// two-dimensional tiling (Fig. 2 lines 6-12).
	f := distal.Tiled(2)

	// Declare three dense matrices with the same format (line 15).
	A := distal.NewTensor("A", f, n, n).Zero()
	B := distal.NewTensor("B", f, n, n).FillRandom(1)
	C := distal.NewTensor("C", f, n, n).FillRandom(2)

	// Declare the computation (lines 18-19).
	comp, err := sess.Define("A(i,j) = B(i,k) * C(k,j)", A, B, C)
	if err != nil {
		log.Fatal(err)
	}

	// Map the computation onto m via scheduling commands (lines 22-40).
	comp.Schedule().
		Divide("i", "io", "ii", gx).Divide("j", "jo", "ji", gy).
		Reorder("io", "jo", "ii", "ji").
		Distribute("io", "jo").
		Split("k", "ko", "ki", 16).
		Reorder("io", "jo", "ko", "ii", "ji", "ki").
		Communicate("jo", "A").
		Communicate("ko", "B", "C").
		Substitute([]string{"ii", "ji", "ki"}, "BLAS.GEMM")

	// Compile yields an immutable, data-free Plan (cached in the session);
	// Bind attaches this run's tensors.
	ctx := context.Background()
	plan, err := comp.Compile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.Bind(A, B, C).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Validate against the sequential reference evaluator.
	want, err := ir.Evaluate(comp.Stmt, map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result matches reference: %v (max abs diff %.2e)\n",
		A.Data.EqualWithin(want, 1e-9), A.Data.MaxAbsDiff(want))
	fmt.Printf("simulated time:   %.6f s\n", res.Time)
	fmt.Printf("flops executed:   %.0f\n", res.Flops)
	fmt.Printf("copies scheduled: %d (%.1f KB inter-node)\n",
		res.Copies, float64(res.InterBytes)/1e3)

	// The schedule is data: it serializes to command text ...
	schedText := comp.ScheduleText()
	fmt.Printf("\nschedule text:\n  %s\n", schedText)

	// ... so the whole workload travels as a Request — statement, shapes,
	// formats, and schedule, all text. It names the same program as the
	// fluent computation, so compiling it resolves to the plan compiled
	// above; compiling it again resolves through the request memo without
	// re-parsing anything.
	req := distal.Request{
		Stmt:     "A(i,j) = B(i,k) * C(k,j)",
		Shapes:   map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Formats:  map[string]string{"A": "xy->xy", "B": "xy->xy", "C": "xy->xy"},
		Schedule: schedText,
	}
	plan, err = sess.Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := plan.Simulate(ctx); err != nil {
		log.Fatal(err)
	}
	again, err := sess.Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan %s...: cached on recompile: %v\n", plan.Key()[:12], again.Stats().Cached)
	st := sess.CacheStats()
	fmt.Printf("plan cache: %d hit, %d miss\n", st.Hits, st.Misses)

	// The same cached plan also runs on real data, bound per execution:
	// the plan stays immutable and shareable.
	A2 := distal.NewTensor("A", f, n, n).Zero()
	B2 := distal.NewTensor("B", f, n, n).FillRandom(7)
	C2 := distal.NewTensor("C", f, n, n).FillRandom(8)
	binding := plan.Bind(A2, B2, C2)
	if _, err := binding.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan-bound real run produced %d values\n", binding.Output().Data.Size())
}
