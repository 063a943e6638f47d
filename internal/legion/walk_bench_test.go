package legion_test

import (
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/sim"
)

// compileMatmul builds and compiles one matrix-multiplication configuration.
func compileMatmul(tb testing.TB, alg algorithms.Alg, cfg algorithms.MatmulConfig) *legion.Program {
	tb.Helper()
	in, err := algorithms.Matmul(alg, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := core.Compile(in)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// BenchmarkWalk times the simulated launch walk of the three 2-D matmul
// algorithms on the paper's largest GPU runs (256 nodes of 4 GPUs, Figs. 15
// and 16), the walks that dominate regenerating those figures. Building and
// compiling happen outside the timer.
func BenchmarkWalk(b *testing.B) {
	cfg := algorithms.MatmulConfig{N: 319488, Procs: 1024, ProcsPerNode: 4, GPU: true}
	for _, alg := range []algorithms.Alg{algorithms.Cannon, algorithms.PUMMA, algorithms.SUMMA} {
		b.Run(string(alg), func(b *testing.B) {
			prog := compileMatmul(b, alg, cfg)
			opt := legion.Options{Params: sim.LassenGPU()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := legion.Run(prog, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// walkAllocBudget caps the allocations of one simulated walk of an 8×8
// SUMMA pipeline. The walk allocates per run, per region and per slab
// chunk, never per copy or per point: 115 objects for 3 584 copies. The
// budget is about 1.5× that, so a change that allocates per copy fails at
// once. Counts repeat exactly, so the cap holds on any runner.
const walkAllocBudget = 172

func TestWalkAllocBudget(t *testing.T) {
	prog := compileMatmul(t, algorithms.SUMMA, algorithms.MatmulConfig{N: 512, Procs: 64, ChunkSize: 16})
	opt := legion.Options{Params: sim.LassenCPU()}
	res, err := legion.Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := legion.Run(prog, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per walk, %d copies", allocs, res.Copies)
	if allocs > walkAllocBudget {
		t.Fatalf("walk allocates %v objects for %d copies, budget %d", allocs, res.Copies, walkAllocBudget)
	}
}
