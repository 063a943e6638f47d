package core_test

// Golden equivalence tests for the compiled Real-mode kernel program: for
// every example workload shipped in examples/, the compiled kernelProg and
// the tree-walking oracle (core.CompileTree) must produce bit-identical outputs (not
// merely within epsilon — the two lower the same expression in the same
// floating-point operation order, so any difference is a lowering bug).

import (
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/schedule"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// exampleInputs builds the five example workloads (examples/quickstart,
// examples/cannon, examples/hierarchical, examples/johnson3d,
// examples/mttkrp) at validation sizes. Builders are re-invoked per call,
// so each call returns a fresh, identical input.
func exampleInputs(t *testing.T) map[string]func() core.Input {
	t.Helper()
	mm := func(alg algorithms.Alg, cfg algorithms.MatmulConfig) func() core.Input {
		return func() core.Input {
			in, err := algorithms.Matmul(alg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
	}
	return map[string]func() core.Input{
		// quickstart: SUMMA on a 2x2 grid with a chunked k loop.
		"quickstart": mm(algorithms.SUMMA, algorithms.MatmulConfig{N: 64, Procs: 4, ChunkSize: 16}),
		// cannon: systolic rotation on a 3x3 grid.
		"cannon": mm(algorithms.Cannon, algorithms.MatmulConfig{N: 24, Procs: 9}),
		// hierarchical: SUMMA over nodes of grouped processors.
		"hierarchical": mm(algorithms.SUMMA, algorithms.MatmulConfig{N: 32, Procs: 16, ProcsPerNode: 4, ChunkSize: 8}),
		// johnson3d: replicated faces and a distributed reduction.
		"johnson3d": mm(algorithms.Johnson, algorithms.MatmulConfig{N: 24, Procs: 8}),
		// mttkrp: the 4-tensor kernel with partial-result reduction.
		"mttkrp": func() core.Input {
			in, err := algorithms.MTTKRP(algorithms.HigherConfig{I: 12, J: 6, K: 8, L: 5, Procs: 8})
			if err != nil {
				t.Fatal(err)
			}
			return in
		},
	}
}

// runReal compiles in with compile (core.Compile, or core.CompileTree for
// the tree oracle) and executes it on data bound to the execution,
// returning the LHS data.
func runReal(t *testing.T, compile func(core.Input) (*legion.Program, error), in core.Input, data map[string]*tensor.Dense) *tensor.Dense {
	t.Helper()
	prog, err := compile(in)
	if err != nil {
		t.Fatal(err)
	}
	opt := legion.Options{Params: sim.LassenCPU(), Real: true, Batch: []map[string]*tensor.Dense{data}}
	if _, err := legion.Run(prog, opt); err != nil {
		t.Fatal(err)
	}
	return data[in.Stmt.LHS.Tensor]
}

// TestKernelProgGolden asserts the compiled kernel program and the
// tree-walking oracle produce bit-identical results on every example
// workload, and that both match the sequential reference evaluator.
func TestKernelProgGolden(t *testing.T) {
	for name, build := range exampleInputs(t) {
		t.Run(name, func(t *testing.T) { assertBitIdentical(t, build) })
	}
}

// TestKernelProgIncrement pins the += path: the compiled kernel must
// accumulate on top of existing LHS contents exactly as the tree walk does.
func TestKernelProgIncrement(t *testing.T) {
	build := func() core.Input {
		in, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{N: 16, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Same schedule, but applied to the increment form of the statement.
		in.Stmt = ir.MustParse("A(i,j) += B(i,k) * C(k,j)")
		sched, err := schedule.FromText(in.Stmt, in.Schedule.String())
		if err != nil {
			t.Fatal(err)
		}
		in.Schedule = sched
		return in
	}
	run := func(compile func(core.Input) (*legion.Program, error)) *tensor.Dense {
		in := build()
		data := algorithms.RandomData(in)
		data["A"].Fill(1)
		return runReal(t, compile, in, data)
	}
	got := run(core.Compile)
	want := run(core.CompileTree)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("increment output[%d]: %v != %v", i, got.Data()[i], want.Data()[i])
		}
	}
}
