package core_test

// Tests for the Real-mode parallel task executor: kernel invocations of one
// launch fan out over a bounded worker pool, on one immutable compiled plan
// shared by concurrent executions. Under -race this asserts the executor's
// independence analysis (no two workers touch one accumulator); the exact
// output comparison against serial execution asserts exactly-once writes and
// unchanged floating-point accumulation order — a task run twice doubles a
// ReduceSum contribution, a reordered pair changes low bits.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// matmulData builds a fresh per-execution binding for an n x n matmul: the
// deterministic inputs the algorithms package seeds, and a zero output.
func matmulData(n int) map[string]*tensor.Dense {
	a := tensor.New("A", n, n)
	b := tensor.New("B", n, n)
	b.FillRandom(7)
	c := tensor.New("C", n, n)
	c.FillRandom(8)
	return map[string]*tensor.Dense{"A": a, "B": b, "C": c}
}

// TestParallelLeafTasksMatchSerial executes one shared compiled plan with
// per-execution data bindings at several worker counts and GOMAXPROCS
// settings, requiring every run's output to be bit-identical to the serial
// (RealWorkers=1) run. Workloads cover in-place accumulators (SUMMA: each
// leaf owns its output tile), replicated non-in-place accumulators with a
// distributed reduction (Johnson), and ragged extents.
func TestParallelLeafTasksMatchSerial(t *testing.T) {
	workloads := map[string]func() (core.Input, error){
		"summa": func() (core.Input, error) {
			return algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{N: 64, Procs: 16, ChunkSize: 16})
		},
		"johnson": func() (core.Input, error) {
			return algorithms.Matmul(algorithms.Johnson, algorithms.MatmulConfig{N: 24, Procs: 8})
		},
		"cannon-ragged": func() (core.Input, error) {
			return algorithms.Matmul(algorithms.Cannon, algorithms.MatmulConfig{N: 25, Procs: 9})
		},
	}
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			in, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			n := in.Tensors["A"].Shape[0]
			prog, err := core.Compile(in)
			if err != nil {
				t.Fatal(err)
			}
			execute := func(workers int) (*tensor.Dense, error) {
				data := matmulData(n)
				_, err := legion.Run(prog, legion.Options{
					Params: sim.LassenCPU(), Real: true, RealWorkers: workers, Batch: []map[string]*tensor.Dense{data},
				})
				return data["A"], err
			}
			want, err := execute(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 7} {
				for _, procs := range []int{2, runtime.NumCPU()} {
					t.Run(fmt.Sprintf("workers=%d/gomaxprocs=%d", workers, procs), func(t *testing.T) {
						prev := runtime.GOMAXPROCS(procs)
						defer runtime.GOMAXPROCS(prev)
						got, err := execute(workers)
						if err != nil {
							t.Fatal(err)
						}
						for i := range got.Data() {
							if got.Data()[i] != want.Data()[i] {
								t.Fatalf("output[%d]: parallel %v != serial %v (bit-identical required)",
									i, got.Data()[i], want.Data()[i])
							}
						}
					})
				}
			}
		})
	}
}

// TestParallelSharedPlanConcurrentRuns executes one cached plan from many
// goroutines at once, each execution with its own data binding and the
// default worker pool — the serving scenario (plan cache hit, concurrent
// requests). Every result must equal the serial reference; under -race this
// additionally proves the plan and its pooled kernel scratch are safe to
// share.
func TestParallelSharedPlanConcurrentRuns(t *testing.T) {
	in, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{N: 50, Procs: 16, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	execute := func(workers int) (*tensor.Dense, error) {
		data := matmulData(50)
		_, err := legion.Run(prog, legion.Options{
			Params: sim.LassenCPU(), Real: true, RealWorkers: workers, Batch: []map[string]*tensor.Dense{data},
		})
		return data["A"], err
	}
	want, err := execute(1)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	outs := make([]*tensor.Dense, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = execute(0)
		}(r)
	}
	wg.Wait()
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		for i := range outs[r].Data() {
			if outs[r].Data()[i] != want.Data()[i] {
				t.Fatalf("run %d output[%d]: %v != serial %v", r, i, outs[r].Data()[i], want.Data()[i])
			}
		}
	}
}
