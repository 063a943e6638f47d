package core_test

// Golden tests for the strided row lowering of the Real-mode kernel: ragged
// (non-divisible) extents and rotated schedules must produce outputs
// bit-identical to the tree-walking oracle (core.CompileTree). The strided
// path handles full rows with one ValueProgram pass and a constant-stride
// inner loop, re-runs ragged boundary rows per point, and refuses rows whose
// innermost reconstruction is not affine — these cases pin all three regimes.

import (
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/schedule"
)

// assertBitIdentical runs in's compiled and tree kernels on the same fresh
// data and compares every output element exactly, then checks the compiled
// result against the sequential reference evaluator.
func assertBitIdentical(t *testing.T, build func() core.Input) {
	t.Helper()
	in := build()
	got := runReal(t, core.Compile, in, algorithms.RandomData(in))

	treeIn := build()
	want := runReal(t, core.CompileTree, treeIn, algorithms.RandomData(treeIn))

	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("output sizes differ: %d vs %d", len(gd), len(wd))
	}
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("output[%d]: compiled kernel %v != tree kernel %v (bit-identical required)", i, gd[i], wd[i])
		}
	}

	data := algorithms.RandomData(in)
	delete(data, in.Stmt.LHS.Tensor)
	ref, err := ir.Evaluate(in.Stmt, data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWithin(ref, 1e-9) {
		t.Fatalf("compiled kernel diverges from reference: max diff %v", got.MaxAbsDiff(ref))
	}
}

// TestStridedKernelRagged covers non-divisible extents, where the strided
// path must hand ragged boundary rows back to the per-point walk: a SUMMA
// whose tiles and chunks all have ragged tails (50 over a 4x4 grid) and a
// rotated Cannon whose k blocks overhang the matrix (25 over 3x3: the last
// block covers 18..24 of 27 reconstructed values).
func TestStridedKernelRagged(t *testing.T) {
	cases := map[string]func() (core.Input, error){
		"summa-ragged": func() (core.Input, error) {
			return algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{N: 50, Procs: 16, ChunkSize: 16})
		},
		"cannon-ragged": func() (core.Input, error) {
			return algorithms.Matmul(algorithms.Cannon, algorithms.MatmulConfig{N: 25, Procs: 9})
		},
		"johnson-ragged": func() (core.Input, error) {
			return algorithms.Matmul(algorithms.Johnson, algorithms.MatmulConfig{N: 23, Procs: 8})
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			assertBitIdentical(t, func() core.Input {
				in, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				return in
			})
		})
	}
}

// TestStridedKernelRotatedInnermostFallback rotates the innermost leaf
// variable itself — ki = (kis + io) mod ext — so the row reconstruction
// wraps and CompileRow must refuse the plan. The kernel then takes the
// per-point fallback for every task, and its output must still match the
// tree walk bit for bit.
func TestStridedKernelRotatedInnermostFallback(t *testing.T) {
	build := func() core.Input {
		stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
		cfg := algorithms.MatmulConfig{N: 24, Procs: 9}
		s := schedule.New(stmt).
			DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{3, 3}).
			Divide("k", "ko", "ki", 3).
			Reorder("ko", "ii", "ji", "ki").
			Rotate("ko", []string{"io", "jo"}, "kos").
			Rotate("ki", []string{"io"}, "kis").
			Communicate("jo", "A").
			Communicate("kos", "B", "C")
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		decl := func(name string) *core.TensorDecl {
			return &core.TensorDecl{Name: name, Shape: []int{cfg.N, cfg.N}, Placement: distnot.MustParsePlacement("xy->xy")}
		}
		return core.Input{
			Stmt:    stmt,
			Machine: cfg.MachineFor(3, 3),
			Tensors: map[string]*core.TensorDecl{
				"A": decl("A"), "B": decl("B"), "C": decl("C"),
			},
			Schedule: s,
		}
	}
	assertBitIdentical(t, build)
}
