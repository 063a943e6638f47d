package core_test

// Differential coverage for the blocked leaf kernel (blockkernel.go): every
// statement shape the block lowerings distinguish, over extents and leaf
// orders that reach each regime — full and ragged prefix boxes, the
// micro-kernel in both orientations, fused and generic rows, blocks handed
// back per point, height-1 blocks and plans with no block at all — must
// produce outputs bit-identical to the tree-walking oracle
// (core.CompileTree) at every worker count and batch size.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/schedule"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// blockCase is one statement of the table: i is distributed over two
// processors, k is split in chunks of four with ko a sequential launch loop,
// and the remaining variables form the leaf in the order a leafOrder gives.
type blockCase struct {
	name  string
	stmt  string
	other string // leaf variables besides ii and ki, default order
}

var blockCases = []blockCase{
	{"gemm", "A(i,j) = B(i,k) * C(k,j)", "j"},
	{"ttv", "A(i,j) = B(i,j,k) * c(k)", "j"},
	{"ttm", "A(i,j,l) = B(i,j,k) * C(k,l)", "jl"},
	{"ttmc", "A(i,l,m) = B(i,j,k) * C(j,l) * D(k,m)", "jlm"},
	{"mttkrp", "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)", "jl"},
	// The same chains with the factors in another order: the lowerings pick
	// operand roles from the strides, not from the position in the product.
	{"gemm-swapped", "A(i,j) = B(k,j) * C(i,k)", "j"},
	{"mttkrp-swapped", "A(i,l) = B(j,l) * C(i,j,k) * D(k,l)", "jl"},
	{"mttkrp-tail", "A(i,l) = B(j,l) * C(i,j,k) * D(i,k)", "jl"},
	// Bodies outside the product-chain shapes: an addition and a literal
	// under a reduction, and stores that assign instead of accumulate.
	{"gemm-plus", "A(i,j) = B(i,k) * C(k,j) + 2 * D(i,j)", "j"},
	{"outer", "A(i,j,k) = B(i,k) * C(k,j)", "j"},
	{"outer-sum", "A(i,j,k) = B(i,k) + D(i,k) + 2 * C(k,j)", "j"},
}

// blockExtents are the extent regimes, by variable. Divisible extents make
// every block a full box (and rows of at least one 4-wide tile); prime and
// ragged ones leave ragged tails on ii (i over two processors) and on ki (k
// in chunks of four); unit extents collapse loops to a single iteration. The
// width regimes set the micro-kernel's tile variable (j, and l where j is
// reduced) to each width that leaves a remainder past the 4-wide tiles — 1
// and 2 and 3 cells alone, or after one whole tile.
var blockExtents = map[string]map[byte]int{
	"divisible": {'i': 8, 'j': 8, 'k': 8, 'l': 8, 'm': 4},
	"prime":     {'i': 7, 'j': 5, 'k': 11, 'l': 7, 'm': 3},
	"ragged":    {'i': 9, 'j': 6, 'k': 10, 'l': 9, 'm': 5},
	"unit":      {'i': 2, 'j': 1, 'k': 5, 'l': 1, 'm': 6},
	"width1":    {'i': 4, 'j': 1, 'k': 6, 'l': 1, 'm': 2},
	"width2":    {'i': 4, 'j': 2, 'k': 6, 'l': 2, 'm': 2},
	"width3":    {'i': 4, 'j': 3, 'k': 6, 'l': 3, 'm': 2},
	"width5":    {'i': 4, 'j': 5, 'k': 6, 'l': 5, 'm': 2},
	"width6":    {'i': 4, 'j': 6, 'k': 6, 'l': 6, 'm': 2},
	"width7":    {'i': 4, 'j': 7, 'k': 6, 'l': 7, 'm': 2},
}

// leafOrders name how the leaf loops are arranged. Each returns the schedule
// text for a case.
var leafOrders = map[string]func(c blockCase, tensors []string) string{
	// ki innermost: the block's row is a reduction.
	"reduction-innermost": func(c blockCase, tensors []string) string {
		return blockSchedule(tensors, "ko", slices.Concat(ii, split(c.other), []string{"ki"}), "")
	},
	// The last output variable innermost, ki just outside it.
	"output-innermost": func(c blockCase, tensors []string) string {
		o := split(c.other)
		return blockSchedule(tensors, "ko", slices.Concat(ii, o[:len(o)-1], []string{"ki"}, o[len(o)-1:]), "")
	},
	// ki rotated by io: the innermost reconstruction wraps, no block plan.
	"rotated-innermost": func(c blockCase, tensors []string) string {
		return blockSchedule(tensors, "ko", slices.Concat(ii, split(c.other), []string{"kis"}), "rotate(ki,io,kis)")
	},
	// Inputs communicated at the second-innermost loop: one leaf variable.
	"single-leaf-variable": func(c blockCase, tensors []string) string {
		o := split(c.other)
		return blockSchedule(tensors, o[len(o)-1], slices.Concat(ii, o, []string{"ki"}), "")
	},
	// ko stays in the leaf next to ki: a ragged k tail couples the block's
	// outer and inner variable and the block is judged per point.
	"coupled-innermost": func(c blockCase, tensors []string) string {
		return blockSchedule(tensors, "io", slices.Concat(ii, split(c.other), []string{"ko", "ki"}), "")
	},
	// ko, ki, then the last output variable: a ragged k tail couples the
	// block's plane and outer variable, so the block is judged per plane.
	"coupled-plane": func(c blockCase, tensors []string) string {
		o := split(c.other)
		return blockSchedule(tensors, "io", slices.Concat(ii, o[:len(o)-1], []string{"ko", "ki"}, o[len(o)-1:]), "")
	},
	// ki rotated by io as the third-innermost leaf variable: the block
	// falls back to the two innermost.
	"rotated-plane": func(c blockCase, tensors []string) string {
		l := slices.Concat(ii, split(c.other))
		n := len(l) - 2
		return blockSchedule(tensors, "ko", slices.Concat(l[:n], []string{"kis"}, l[n:]), "rotate(ki,io,kis)")
	},
}

var ii = []string{"ii"}

func split(vars string) []string { return strings.Split(vars, "") }

// blockSchedule renders the schedule: anchor is the loop the inputs are
// communicated at (everything below it is the leaf), leaf lists the loops
// below it in order, extra is appended before the reorder.
func blockSchedule(tensors []string, anchor string, leaf []string, extra string) string {
	order := []string{"io"}
	if anchor == "ko" {
		order = append(order, "ko")
	}
	order = append(order, leaf...)
	return fmt.Sprintf("divide(i,io,ii,2) split(k,ko,ki,4) %s reorder(%s) distribute(io) communicate(io,%s) communicate(%s,%s)",
		extra, strings.Join(order, ","), tensors[0], anchor, strings.Join(tensors[1:], ","))
}

// blockInput builds the core.Input of a table cell and n data bindings
// (inputs seeded differently per instance, outputs zero).
func blockInput(t *testing.T, c blockCase, ext map[byte]int, order string, n int) (func() core.Input, []map[string]*tensor.Dense) {
	t.Helper()
	stmt := ir.MustParse(c.stmt)
	accesses := stmt.RHS.Accesses([]*ir.Access{stmt.LHS})
	var names []string
	shapes := map[string][]int{}
	for _, a := range accesses {
		names = append(names, a.Tensor)
		shape := make([]int, len(a.Indices))
		for d, v := range a.Indices {
			shape[d] = ext[v.Name[0]]
		}
		shapes[a.Tensor] = shape
	}
	text := leafOrders[order](c, names)
	build := func() core.Input {
		s, err := schedule.FromText(stmt, text)
		if err != nil {
			t.Fatalf("schedule %q: %v", text, err)
		}
		in := core.Input{
			Stmt:     stmt,
			Machine:  algorithms.MatmulConfig{}.MachineFor(2),
			Tensors:  map[string]*core.TensorDecl{},
			Schedule: s,
		}
		for _, a := range accesses {
			place := "xyzw"[:len(a.Indices)] + "->*"
			if len(a.Indices) > 0 && a.Indices[0].Name == "i" {
				place = "xyzw"[:len(a.Indices)] + "->x"
			}
			in.Tensors[a.Tensor] = &core.TensorDecl{
				Name: a.Tensor, Shape: shapes[a.Tensor], Placement: distnot.MustParsePlacement(place),
			}
		}
		return in
	}
	data := make([]map[string]*tensor.Dense, n)
	for b := range data {
		data[b] = map[string]*tensor.Dense{}
		for k, name := range names {
			d := tensor.New(name, shapes[name]...)
			if k > 0 {
				d.FillRandom(int64(31 + k + 16*b))
			}
			data[b][name] = d
		}
	}
	return build, data
}

// TestBlockKernelMatchesTree is the table: statement x extents x leaf order
// x RealWorkers x batch, each output compared bit for bit with the tree
// oracle run serially on the same instance, and the oracle itself checked
// against the sequential reference evaluator.
func TestBlockKernelMatchesTree(t *testing.T) {
	for _, c := range blockCases {
		for extName, ext := range blockExtents {
			for order := range leafOrders {
				t.Run(c.name+"/"+extName+"/"+order, func(t *testing.T) {
					const instances = 3
					build, data := blockInput(t, c, ext, order, instances)
					lhs := ir.MustParse(c.stmt).LHS.Tensor

					treeProg, err := core.CompileTree(build())
					if err != nil {
						t.Fatal(err)
					}
					want := make([]*tensor.Dense, instances)
					for b := range want {
						bind := cloneData(data[b])
						if _, err := legion.Run(treeProg, legion.Options{Params: sim.LassenCPU(), Real: true, RealWorkers: 1, Batch: []map[string]*tensor.Dense{bind}}); err != nil {
							t.Fatal(err)
						}
						want[b] = bind[lhs]
					}
					inputs := map[string]*tensor.Dense{}
					for name, d := range data[0] {
						if name != lhs {
							inputs[name] = d
						}
					}
					ref, err := ir.Evaluate(ir.MustParse(c.stmt), inputs)
					if err != nil {
						t.Fatal(err)
					}
					if !want[0].EqualWithin(ref, 1e-9) {
						t.Fatalf("tree oracle diverges from ir.Evaluate: max diff %v", want[0].MaxAbsDiff(ref))
					}

					prog, err := core.Compile(build())
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						for _, batch := range []int{1, instances} {
							binds := make([]map[string]*tensor.Dense, batch)
							for b := range binds {
								binds[b] = cloneData(data[b])
							}
							if _, err := legion.Run(prog, legion.Options{Params: sim.LassenCPU(), Real: true, RealWorkers: workers, Batch: binds}); err != nil {
								t.Fatal(err)
							}
							for b := range binds {
								got, wd := binds[b][lhs].Data(), want[b].Data()
								for i := range wd {
									if got[i] != wd[i] {
										t.Fatalf("workers=%d batch=%d instance %d output[%d]: block kernel %v != tree kernel %v (bit-identical required)",
											workers, batch, b, i, got[i], wd[i])
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestWorkloadLeavesBlockThreeVariables guards the benchmark's kernel-bound
// workloads against a silent return to per-row block analysis: the leaf of
// serve-small and run-gemm (SUMMA on a 4x4 grid) and of both chain-batch
// stages, with the schedules of benchmark/http.go, blocks its three
// innermost variables.
func TestWorkloadLeavesBlockThreeVariables(t *testing.T) {
	summa := func(chunk int) string {
		return fmt.Sprintf("divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) "+
			"split(k,ko,ki,%d) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)", chunk)
	}
	const n, k = 256, 8
	for _, w := range []struct {
		name, stmt, sched string
		shapes            map[string][]int
	}{
		{"serve-small", "A(i,j) = B(i,k) * C(k,j)", summa(8),
			map[string][]int{"A": {64, 64}, "B": {64, 64}, "C": {64, 64}}},
		{"run-gemm", "A(i,j) = B(i,k) * C(k,j)", summa(64),
			map[string][]int{"A": {256, 256}, "B": {256, 256}, "C": {256, 256}}},
		{"chain-batch/D", "D(i,j) = A(i,k) * B(k,j)",
			"divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) " +
				"split(k,ko,ki,8) reorder(io,jo,ko,ii,ji,ki) communicate(jo,D) communicate(ko,A,B)",
			map[string][]int{"D": {n, n}, "A": {n, k}, "B": {k, n}}},
		{"chain-batch/E", "E(i,l) = D(i,j) * C(j,l)",
			"divide(i,io,ii,4) divide(l,lo,li,4) reorder(io,lo,ii,li) distribute(io,lo) " +
				"split(j,jo,ji,64) reorder(io,lo,jo,ii,li,ji) communicate(lo,E) communicate(jo,D,C)",
			map[string][]int{"E": {n, k}, "D": {n, n}, "C": {n, k}}},
	} {
		stmt := ir.MustParse(w.stmt)
		s, err := schedule.FromText(stmt, w.sched)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		in := core.Input{Stmt: stmt, Machine: algorithms.MatmulConfig{}.MachineFor(4, 4), Tensors: map[string]*core.TensorDecl{}, Schedule: s}
		for name, shape := range w.shapes {
			in.Tensors[name] = &core.TensorDecl{Name: name, Shape: shape, Placement: distnot.MustParsePlacement("xy->xy")}
		}
		got, err := core.LeafBlockVars(in)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got != 3 {
			t.Errorf("%s: the leaf blocks %d variables, want 3", w.name, got)
		}
	}
}

func cloneData(data map[string]*tensor.Dense) map[string]*tensor.Dense {
	out := map[string]*tensor.Dense{}
	for name, d := range data {
		out[name] = d.Clone("")
	}
	return out
}

// BenchmarkLeafKernel is the in-package yardstick for the leaf kernel: one
// task's worth of work through the compiled kernel (realKernel on a
// one-processor plan, invoked b.N times inside a single launch so nothing
// but the kernel is timed) beside a hand-written Go loop nest of the same
// shape and loop order, both reporting GFLOP/s.
func BenchmarkLeafKernel(b *testing.B) {
	report := func(b *testing.B, flops int) {
		b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	// kernel times in's single task.
	kernel := func(b *testing.B, in core.Input, flops int) {
		prog, err := core.Compile(in)
		if err != nil {
			b.Fatal(err)
		}
		if len(prog.Launches) != 1 || prog.Launches[0].Domain.Size() != 1 {
			b.Fatalf("want one launch of one task, got %d launches", len(prog.Launches))
		}
		run := prog.Launches[0].Run
		prog.Launches[0].Run = func(ctx *legion.Ctx) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(ctx)
			}
			b.StopTimer()
		}
		opt := legion.Options{Params: sim.LassenCPU(), Real: true, Batch: []map[string]*tensor.Dense{algorithms.RandomData(in)}}
		if _, err := legion.Run(prog, opt); err != nil {
			b.Fatal(err)
		}
		report(b, flops)
	}

	const n = 64 // GEMM: A(i,j) += B(i,k)*C(k,j), 64 x 64 x 64, k innermost
	b.Run("gemm/kernel", func(b *testing.B) {
		in, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{N: n, Procs: 1, ChunkSize: n})
		if err != nil {
			b.Fatal(err)
		}
		kernel(b, in, 2*n*n*n)
	})
	b.Run("gemm/hand", func(b *testing.B) {
		data := matmulData(n)
		a, bm, c := data["A"].Data(), data["B"].Data(), data["C"].Data()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			// A 2x4 register tile, k innermost per tile.
			for i := 0; i < n; i += 2 {
				b0, b1 := bm[i*n:i*n+n], bm[(i+1)*n:(i+1)*n+n]
				for j := 0; j < n; j += 4 {
					a0, a1 := a[i*n+j:i*n+j+4:i*n+j+4], a[(i+1)*n+j:(i+1)*n+j+4:(i+1)*n+j+4]
					s00, s01, s02, s03 := a0[0], a0[1], a0[2], a0[3]
					s10, s11, s12, s13 := a1[0], a1[1], a1[2], a1[3]
					for k := range b0 {
						x0, x1 := b0[k], b1[k]
						cr := c[k*n+j : k*n+j+4 : k*n+j+4]
						s00 += x0 * cr[0]
						s01 += x0 * cr[1]
						s02 += x0 * cr[2]
						s03 += x0 * cr[3]
						s10 += x1 * cr[0]
						s11 += x1 * cr[1]
						s12 += x1 * cr[2]
						s13 += x1 * cr[3]
					}
					a0[0], a0[1], a0[2], a0[3] = s00, s01, s02, s03
					a1[0], a1[1], a1[2], a1[3] = s10, s11, s12, s13
				}
			}
		}
		report(b, 2*n*n*n)
	})

	// chain-batch's two stages, one task's tile each: D = A*B with the thin
	// k = 8 reduction innermost (64 x 64 x 8), and E = D*C with a two-column
	// output, the 2-cell tile (64 x 2 x 64).
	stage := func(b *testing.B, stmt, sched string, shapes map[string][]int) core.Input {
		st := ir.MustParse(stmt)
		s, err := schedule.FromText(st, sched)
		if err != nil {
			b.Fatal(err)
		}
		in := core.Input{Stmt: st, Machine: algorithms.MatmulConfig{}.MachineFor(1), Tensors: map[string]*core.TensorDecl{}, Schedule: s}
		for _, name := range st.TensorNames() {
			in.Tensors[name] = &core.TensorDecl{Name: name, Shape: shapes[name], Placement: distnot.MustParsePlacement("xy->*")}
		}
		return in
	}
	b.Run("chain-thin-k/kernel", func(b *testing.B) {
		in := stage(b, "D(i,j) = A(i,k) * B(k,j)", "reorder(i,j,k)",
			map[string][]int{"D": {64, 64}, "A": {64, 8}, "B": {8, 64}})
		kernel(b, in, 2*64*64*8)
	})
	b.Run("chain-two-column/kernel", func(b *testing.B) {
		in := stage(b, "E(i,l) = D(i,j) * C(j,l)", "reorder(i,l,j)",
			map[string][]int{"E": {64, 2}, "D": {64, 64}, "C": {64, 2}})
		kernel(b, in, 2*64*2*64)
	})

	const m = 32 // MTTKRP: A(i,l) += B(i,j,k)*C(j,l)*D(k,l), 32^3 x 32, l innermost
	b.Run("mttkrp/kernel", func(b *testing.B) {
		in, err := algorithms.MTTKRP(algorithms.HigherConfig{I: m, J: m, K: m, L: m, Procs: 1})
		if err != nil {
			b.Fatal(err)
		}
		kernel(b, in, 3*m*m*m*m)
	})
	b.Run("mttkrp/hand", func(b *testing.B) {
		a, bt := make([]float64, m*m), tensor.New("B", m, m, m)
		c, d := tensor.New("C", m, m), tensor.New("D", m, m)
		bt.FillRandom(7)
		c.FillRandom(8)
		d.FillRandom(9)
		bd, cd, dd := bt.Data(), c.Data(), d.Data()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for i := 0; i < m; i++ {
				ar := a[i*m : i*m+m]
				for j := 0; j < m; j++ {
					cr := cd[j*m : j*m+m]
					cr = cr[:len(ar)]
					for k := 0; k < m; k++ {
						bv := bd[(i*m+j)*m+k]
						dr := dd[k*m : k*m+m]
						dr = dr[:len(ar)]
						for l := range ar {
							ar[l] += bv * cr[l] * dr[l]
						}
					}
				}
			}
		}
		report(b, 3*m*m*m*m)
	})
}
