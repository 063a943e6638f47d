package legion_test

import (
	"runtime"
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
// and 16), the walks that dominate regenerating those figures, and of
// Johnson's and COSMA's, whose inputs are pinned to faces of a 3-D grid, so
// most leaves own nothing and fetch what they read. No sweep walk copies a
// rect that several owners cover (TestReplicatedOwnersCover does). Building
// and compiling happen outside the timer.
func BenchmarkWalk(b *testing.B) {
	cfg := algorithms.MatmulConfig{N: 319488, Procs: 1024, ProcsPerNode: 4, GPU: true}
	for _, alg := range []algorithms.Alg{algorithms.Cannon, algorithms.PUMMA, algorithms.SUMMA, algorithms.Johnson, algorithms.COSMA} {
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

// walkAllocBudget caps the allocations of one warm simulated walk of an 8×8
// SUMMA pipeline. The walk takes its region states, owner indexes, slab
// chunks, volume buckets, simulator arrays and buffers from a pooled scratch,
// and the machine's leaf grid is computed once, so a warm walk allocates only
// what it returns or keeps per run: 5 objects for 3 584 copies (115 before
// the scratch was pooled, 22 before the buckets and the leaf grid were
// kept). The budget is about 1.5× that, so a change that allocates per copy
// or per launch (32 of them), or stops reusing the scratch, fails at once.
// Counts repeat exactly, so the cap holds on any runner.
const walkAllocBudget = 8

// coldWalkAllocBudget caps the same walk from an empty pool: 121–122 objects,
// everything the scratch holds included. Under -race, where sync.Pool drops
// scratch at random, any walk may be cold, so it is the only cap there.
const coldWalkAllocBudget = 172

func TestWalkAllocBudget(t *testing.T) {
	prog := compileMatmul(t, algorithms.SUMMA, algorithms.MatmulConfig{N: 512, Procs: 64, ChunkSize: 16})
	opt := legion.Options{Params: sim.LassenCPU()}
	walk := func() {
		if _, err := legion.Run(prog, opt); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections empty the pool.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	walk()
	runtime.ReadMemStats(&after)
	cold := after.Mallocs - before.Mallocs
	warm := testing.AllocsPerRun(5, walk)
	res, err := legion.Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d allocations per cold walk, %v per warm walk, %d copies", cold, warm, res.Copies)
	if cold > coldWalkAllocBudget {
		t.Fatalf("a cold walk allocates %d objects for %d copies, budget %d", cold, res.Copies, coldWalkAllocBudget)
	}
	budget := float64(walkAllocBudget)
	if raceEnabled {
		budget = coldWalkAllocBudget
	}
	if warm > budget {
		t.Fatalf("a warm walk allocates %v objects for %d copies, budget %v", warm, res.Copies, budget)
	}
}
