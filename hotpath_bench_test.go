package distal

// Hot-path benchmarks: the compile path (per-point bounds analysis and
// launch materialization), a cold compile+execute, and large simulations.
// These pin the performance of the paths a serving session exercises on
// every cache miss and on every Simulate of a cached plan.
//
// Run with: go test -run=NONE -bench='Compile|ColdExecute|SimulateLarge' -benchmem

import (
	"context"
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// johnson8 is an 8x8x8 Johnson 3D matmul: 512 launch points, replicated
// faces, the heaviest compile in the evaluation suite.
func johnson8(b *testing.B) core.Input {
	b.Helper()
	in, err := algorithms.Matmul(algorithms.Johnson, algorithms.MatmulConfig{
		N: 4096, Procs: 512, ProcsPerNode: 4, GPU: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// hierSumma is SUMMA on a 16x16 grid of GPUs grouped 4 per node with a
// sequential chunked k loop: 32 launches of 256 points each, exercising the
// multi-launch control path and intra/inter-node copy pricing.
func hierSumma(b *testing.B) core.Input {
	b.Helper()
	in, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{
		N: 8192, Procs: 256, ProcsPerNode: 4, GPU: true, ChunkSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkCompile measures the pure compile path (bounds analysis and
// eager launch materialization) on large domains.
func BenchmarkCompile(b *testing.B) {
	cases := []struct {
		name string
		in   core.Input
	}{
		{"johnson8x8x8", johnson8(b)},
		{"summa16x16seq", hierSumma(b)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(c.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// realSumma is a validated-execution workload: chunked SUMMA on a 4x4 grid,
// small enough that the leaf kernels (not the simulator) dominate.
func realSumma(b *testing.B) core.Input {
	b.Helper()
	in, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{
		N: 128, Procs: 16, ChunkSize: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkColdExecute measures what a plan-cache miss costs end to end:
// compile plus one execution. The sim case is the serving path (simulated
// cost model only); the real case executes the compiled leaf kernels on
// actual data.
func BenchmarkColdExecute(b *testing.B) {
	summa := realSumma(b)
	cases := []struct {
		name string
		in   core.Input
		opt  legion.Options
	}{
		{"sim", johnson8(b), legion.Options{Params: sim.LassenGPU()}},
		{"real", summa, legion.Options{Params: sim.LassenCPU(), Real: true, Batch: []map[string]*tensor.Dense{algorithms.RandomData(summa)}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog, err := core.Compile(c.in)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := legion.Run(prog, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateLarge measures repeated simulation of cached plans over
// big grids (the steady-state serving path).
func BenchmarkSimulateLarge(b *testing.B) {
	cases := []struct {
		name string
		in   core.Input
	}{
		{"johnson8x8x8", johnson8(b)},
		{"summa16x16seq", hierSumma(b)},
	}
	for _, c := range cases {
		prog, err := core.Compile(c.in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := legion.Run(prog, legion.Options{Params: sim.LassenGPU()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTune is one tune of the repository benchmark's tune-gemm
// workload, in process: GEMM n = 8192 on an 8x8 CPU grid, budget 64, seed 1,
// on a fresh session, so every candidate is a schedule parse, a cold compile,
// a cache store and a simulate. Its bytes/op is the compile→simulate cycle's
// heap churn.
func BenchmarkTune(b *testing.B) {
	const n = 8192
	req := Request{Stmt: gemmStmt, Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSession(NewMachine(CPU, 8, 8))
		if _, err := s.Tune(context.Background(), req, TuneOptions{Budget: 64, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
