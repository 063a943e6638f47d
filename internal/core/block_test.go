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
	"maps"
	"math"
	"math/rand"
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

// blockInput builds the core.Input of a table cell, its schedule rendered by
// sched from the statement's tensor names (output first), and n data
// bindings (inputs seeded differently per instance, outputs zero).
func blockInput(t *testing.T, c blockCase, ext map[byte]int, sched func(tensors []string) string, n int) (func() core.Input, []map[string]*tensor.Dense) {
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
	text := sched(names)
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
					checkMatchesTree(t, c, ext, func(tensors []string) string { return leafOrders[order](c, tensors) })
				})
			}
		}
	}
}

// checkMatchesTree runs c at extents ext under the schedule sched renders
// through the compiled kernel at 1 and 4 workers, batches of 1 and 3, and
// fails unless every output is bit-identical to the tree oracle run serially
// on the same instance; the oracle itself is checked against the sequential
// reference evaluator.
func checkMatchesTree(t *testing.T, c blockCase, ext map[byte]int, sched func(tensors []string) string) {
	t.Helper()
	const instances = 3
	build, data := blockInput(t, c, ext, sched, instances)
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
}

// workloadLeaf is one leaf of a benchmark workload, on a 4x4 grid.
type workloadLeaf struct {
	name, stmt, sched string
	shapes            map[string][]int
}

// workloadLeaves are the leaves of the benchmark's kernel-bound workloads:
// serve-small and run-gemm (SUMMA) and both chain-batch stages, with the
// schedules of benchmark/http.go.
var workloadLeaves = []workloadLeaf{
	{"serve-small", "A(i,j) = B(i,k) * C(k,j)", summaSchedule(8),
		map[string][]int{"A": {64, 64}, "B": {64, 64}, "C": {64, 64}}},
	{"run-gemm", "A(i,j) = B(i,k) * C(k,j)", summaSchedule(64),
		map[string][]int{"A": {256, 256}, "B": {256, 256}, "C": {256, 256}}},
	{"chain-batch/D", "D(i,j) = A(i,k) * B(k,j)",
		"divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) " +
			"split(k,ko,ki,8) reorder(io,jo,ko,ii,ji,ki) communicate(jo,D) communicate(ko,A,B)",
		map[string][]int{"D": {256, 256}, "A": {256, 8}, "B": {8, 256}}},
	{"chain-batch/E", "E(i,l) = D(i,j) * C(j,l)",
		"divide(i,io,ii,4) divide(l,lo,li,4) reorder(io,lo,ii,li) distribute(io,lo) " +
			"split(j,jo,ji,64) reorder(io,lo,jo,ii,li,ji) communicate(lo,E) communicate(jo,D,C)",
		map[string][]int{"E": {256, 8}, "D": {256, 256}, "C": {256, 8}}},
}

func summaSchedule(chunk int) string {
	return fmt.Sprintf("divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) "+
		"split(k,ko,ki,%d) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)", chunk)
}

// workloadInput builds workloadLeaves[i]'s input on a 4x4 grid.
func workloadInput(t *testing.T, i int) core.Input {
	t.Helper()
	w := workloadLeaves[i]
	stmt := ir.MustParse(w.stmt)
	s, err := schedule.FromText(stmt, w.sched)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	in := core.Input{Stmt: stmt, Machine: algorithms.MatmulConfig{}.MachineFor(4, 4), Tensors: map[string]*core.TensorDecl{}, Schedule: s}
	for name, shape := range w.shapes {
		in.Tensors[name] = &core.TensorDecl{Name: name, Shape: shape, Placement: distnot.MustParsePlacement("xy->xy")}
	}
	return in
}

// TestWorkloadLeavesBlockThreeVariables guards the benchmark's kernel-bound
// workloads against a silent return to per-row block analysis: every leaf of
// workloadLeaves blocks its three innermost variables.
func TestWorkloadLeavesBlockThreeVariables(t *testing.T) {
	for i, w := range workloadLeaves {
		got, err := core.LeafBlockVars(workloadInput(t, i))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got != 3 {
			t.Errorf("%s: the leaf blocks %d variables, want 3", w.name, got)
		}
	}
}

// fusedCases are the tile lowering's plane regimes. Each leaf is three
// block variables, the plane outermost: the tile along the outer variable
// (reduction innermost) and along the inner one, which fuse planes four at
// a time, and two shapes that must stay per plane — a plane variable that
// is a reduction (every plane adds into the same store cells) and a y that
// moves with the plane (the planes share no streamed operand).
var fusedCases = []struct {
	blockCase
	leaf  []string
	fused bool
}{
	{blockCase{name: "tile-outer", stmt: "A(i,j) = B(i,k) * C(k,j)"}, []string{"ii", "j", "ki"}, true},
	{blockCase{name: "tile-inner", stmt: "A(i,j) = B(i,k) * C(k,j)"}, []string{"ii", "ki", "j"}, true},
	{blockCase{name: "reduction-plane", stmt: "A(i,j) = B(i,l,k) * C(k,j)"}, []string{"ii", "l", "j", "ki"}, false},
	{blockCase{name: "y-moves", stmt: "A(i,j) = B(i,k) * C(i,k,j)"}, []string{"ii", "j", "ki"}, false},
}

// TestFusedPlanesMatchTree runs each fusedCases shape at plane counts on
// either side of each multiple of four (i over two processors gives ii
// planes; l is the reduction plane), a ragged count (i 13: 7 and 6 planes),
// and tile widths with and without a ragged remainder, bit for bit against
// the tree oracle, and checks which shapes fuse.
func TestFusedPlanesMatchTree(t *testing.T) {
	for _, c := range fusedCases {
		sched := func(tensors []string) string { return blockSchedule(tensors, "ko", c.leaf, "") }
		for _, planes := range []int{1, 3, 4, 5, 6, 7, 8, 9, 13} {
			for _, width := range []int{3, 4, 6, 9} {
				ext := map[byte]int{'i': 2 * planes, 'j': width, 'k': 10, 'l': planes}
				if planes == 13 {
					ext['i'] = 13
				}
				t.Run(fmt.Sprintf("%s/planes%d/width%d", c.name, planes, width), func(t *testing.T) {
					checkMatchesTree(t, c.blockCase, ext, sched)
				})
			}
		}
		build, data := blockInput(t, c.blockCase, map[byte]int{'i': 16, 'j': 8, 'k': 8, 'l': 4}, sched, 1)
		n := countLowerings(t, build(), data)
		fused, tasks := n.Fused.Load(), n.Tasks.Load()
		if want := map[bool]int64{true: tasks, false: 0}[c.fused]; tasks == 0 || fused != want {
			t.Errorf("%s: %d of %d tasks fuse planes, want %d", c.name, fused, tasks, want)
		}
	}
}

// countLowerings runs in once per batch of binds through the real binding
// path and returns its tasks, over all runs, counted by lowering
// (core.CompileCounting).
func countLowerings(t *testing.T, in core.Input, batches ...[]map[string]*tensor.Dense) *core.LoweringCounts {
	t.Helper()
	n := new(core.LoweringCounts)
	prog, err := core.CompileCounting(in, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, binds := range batches {
		if _, err := legion.Run(prog, legion.Options{Params: sim.LassenCPU(), Real: true, RealWorkers: 2, Batch: binds}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestRunGemmFusesPlanes pins the kernel run-gemm is measured on: every task
// of its SUMMA leaf (ii, ji, ki) runs four planes at a time, bound the ways
// a run binds it (runBindings). An output sharing an array with an input
// runs plane by plane.
func TestRunGemmFusesPlanes(t *testing.T) {
	i := slices.IndexFunc(workloadLeaves, func(w workloadLeaf) bool { return w.name == "run-gemm" })
	own, stacked := runBindings(workloadLeaves[i].shapes)
	n := countLowerings(t, workloadInput(t, i), []map[string]*tensor.Dense{own}, stacked)
	if fused, tasks := n.Fused.Load(), n.Tasks.Load(); tasks == 0 || fused != tasks {
		t.Errorf("run-gemm: %d of %d tasks fuse planes, want all", fused, tasks)
	}
	// The store aliases x.
	n = countLowerings(t, workloadInput(t, i), []map[string]*tensor.Dense{oneArray(own, "A", "B")})
	if fused, tasks := n.Fused.Load(), n.Tasks.Load(); fused != 0 || tasks == 0 {
		t.Errorf("run-gemm with A and B in one array: %d of %d tasks fuse planes, want 0", fused, tasks)
	}
}

// TestRunMTTKRPHoldsRow pins the kernel run-mttkrp is measured on: every task
// of its leaf (ji, ki, l), whose rows all add into one output row, holds
// that row in registers (leaf.HeldRow), bound the ways a run binds it. An
// output sharing an array with any factor runs leaf.Axpy instead wherever
// the store is that array: in the two tasks at grid points (io, 0, 0), which
// own A's rows (format ab->a00) and add into them in place. The other six
// reduce into task-local accumulators and still hold the row.
func TestRunMTTKRPHoldsRow(t *testing.T) {
	// benchmark/http.go's run-mttkrp request: 64³ × 32 on a 2×2×2 grid.
	in, err := algorithms.MTTKRP(algorithms.HigherConfig{I: 64, J: 64, K: 64, L: 32, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string][]int{}
	for name, d := range in.Tensors {
		shapes[name] = d.Shape
	}
	own, stacked := runBindings(shapes)
	n := countLowerings(t, in, []map[string]*tensor.Dense{own}, stacked)
	if held, tasks := n.Held.Load(), n.Tasks.Load(); tasks == 0 || held != tasks {
		t.Errorf("run-mttkrp: %d of %d tasks hold the output row, want all", held, tasks)
	}
	for _, factor := range []string{"B", "C", "D"} {
		n := countLowerings(t, in, []map[string]*tensor.Dense{oneArray(own, "A", factor)})
		if held, axpy := n.Held.Load(), n.Axpy.Load(); axpy != 2 || held+axpy != n.Tasks.Load() {
			t.Errorf("run-mttkrp with A and %s in one array: %d held and %d Axpy of %d tasks, want 2 Axpy and the rest held",
				factor, held, axpy, n.Tasks.Load())
		}
	}
}

// heldCases are the held-row lowering's regimes under three-variable
// leaves: MTTKRP's order, where every row (ki) adds into one output row,
// which is held, and two shapes that must run leaf.Axpy — an output that
// moves with the row variable (ii), and a chain whose two leading factors
// do not move along the output row (p2 present, no c).
var heldCases = []struct {
	blockCase
	leaf []string
	held bool
}{
	{blockCase{name: "held", stmt: "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)"}, []string{"ii", "j", "ki", "l"}, true},
	{blockCase{name: "store-moves", stmt: "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)"}, []string{"j", "ki", "ii", "l"}, false},
	{blockCase{name: "two-scalars", stmt: "A(i,l) = B(i,j,k) * D(i,k) * C(j,l)"}, []string{"ii", "j", "ki", "l"}, false},
}

// TestHeldRowMatchesTree runs each heldCases shape at output rows below,
// at and past one and two groups of eight, bit for bit against the tree
// oracle, and checks which shapes hold the row.
func TestHeldRowMatchesTree(t *testing.T) {
	for _, c := range heldCases {
		sched := func(tensors []string) string { return blockSchedule(tensors, "ko", c.leaf, "") }
		for _, width := range []int{7, 8, 9, 16, 19} {
			ext := map[byte]int{'i': 6, 'j': 3, 'k': 10, 'l': width}
			t.Run(fmt.Sprintf("%s/width%d", c.name, width), func(t *testing.T) {
				checkMatchesTree(t, c.blockCase, ext, sched)
			})
		}
		build, data := blockInput(t, c.blockCase, map[byte]int{'i': 6, 'j': 3, 'k': 8, 'l': 16}, sched, 1)
		n := countLowerings(t, build(), data)
		held, axpy, tasks := n.Held.Load(), n.Axpy.Load(), n.Tasks.Load()
		if c.held && (tasks == 0 || held != tasks) || !c.held && (tasks == 0 || held != 0 || axpy != tasks) {
			t.Errorf("%s: %d held and %d Axpy of %d tasks, want all %s", c.name, held, axpy, tasks,
				map[bool]string{true: "held", false: "Axpy"}[c.held])
		}
	}
}

// TestSpecialValuesMatchTree feeds the four-plane tile's shapes (tile-outer
// and tile-inner) and the held row's inputs in which about one element in
// 48 is a special value — ±Inf, −0, a subnormal, a NaN — through the real
// binding path at one and four workers, and compares them with the tree
// oracle: a NaN cell must be NaN there too, and every other cell
// bit-identical. Which NaN payload survives where two meet is outside the
// promise (see leaf.Tile4). Every task must take its shape's fast path
// (leaf.Tile4 or leaf.HeldRow), and each shape must produce NaN, infinite
// and finite cells, so each kind of value reaches the kernels.
func TestSpecialValuesMatchTree(t *testing.T) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0x1p-1070, -0x1p-1040, math.NaN()}
	cases := []struct {
		blockCase
		leaf []string
		ext  map[byte]int
	}{
		{fusedCases[0].blockCase, fusedCases[0].leaf, map[byte]int{'i': 16, 'j': 8, 'k': 10}},
		{fusedCases[1].blockCase, fusedCases[1].leaf, map[byte]int{'i': 16, 'j': 9, 'k': 10}},
		{heldCases[0].blockCase, heldCases[0].leaf, map[byte]int{'i': 6, 'j': 3, 'k': 10, 'l': 19}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched := func(tensors []string) string { return blockSchedule(tensors, "ko", c.leaf, "") }
			build, data := blockInput(t, c.blockCase, c.ext, sched, 1)
			lhs := ir.MustParse(c.stmt).LHS.Tensor
			rng := rand.New(rand.NewSource(7))
			for _, name := range slices.Sorted(maps.Keys(data[0])) {
				if name == lhs {
					continue
				}
				for i, v := range data[0][name].Data() {
					if rng.Intn(48) == 0 {
						v = specials[rng.Intn(len(specials))]
					}
					data[0][name].Data()[i] = v
				}
			}
			run := func(prog *legion.Program, workers int) []float64 {
				bind := cloneData(data[0])
				if _, err := legion.Run(prog, legion.Options{Params: sim.LassenCPU(), Real: true, RealWorkers: workers, Batch: []map[string]*tensor.Dense{bind}}); err != nil {
					t.Fatal(err)
				}
				return bind[lhs].Data()
			}
			treeProg, err := core.CompileTree(build())
			if err != nil {
				t.Fatal(err)
			}
			want := run(treeProg, 1)
			var nan, inf, finite int
			for _, v := range want {
				switch {
				case math.IsNaN(v):
					nan++
				case math.IsInf(v, 0):
					inf++
				default:
					finite++
				}
			}
			if nan == 0 || inf == 0 || finite == 0 {
				t.Fatalf("the oracle's output has %d NaN, %d infinite and %d finite cells, want some of each", nan, inf, finite)
			}
			n := countLowerings(t, build(), []map[string]*tensor.Dense{cloneData(data[0])})
			if fast, tasks := n.Fused.Load()+n.Held.Load(), n.Tasks.Load(); tasks == 0 || fast != tasks {
				t.Fatalf("%d of %d tasks fuse planes or hold the row, want all", fast, tasks)
			}
			prog, err := core.Compile(build())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				for i, v := range run(prog, workers) {
					if math.Float64bits(v) != math.Float64bits(want[i]) && !(math.IsNaN(v) && math.IsNaN(want[i])) {
						t.Fatalf("workers=%d output[%d]: block kernel %v (%#x) != tree kernel %v (%#x)",
							workers, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// runBindings binds shapes the ways a run binds them: own gives every tensor
// an array of its own, and stacked is a batch of three whose instances are
// views of one slab per tensor, as BindStacked makes them.
func runBindings(shapes map[string][]int) (own map[string]*tensor.Dense, stacked []map[string]*tensor.Dense) {
	const batch = 3
	own = map[string]*tensor.Dense{}
	stacked = make([]map[string]*tensor.Dense, batch)
	for b := range stacked {
		stacked[b] = map[string]*tensor.Dense{}
	}
	for name, shape := range shapes {
		own[name] = tensor.New(name, shape...)
		vol := len(own[name].Data())
		slab := make([]float64, batch*vol)
		for b := range stacked {
			stacked[b][name] = tensor.FromData(name, slab[b*vol:(b+1)*vol], shape...)
		}
	}
	return own, stacked
}

// oneArray returns binds with tensors a and b moved into the two halves of
// one array.
func oneArray(binds map[string]*tensor.Dense, a, b string) map[string]*tensor.Dense {
	va, vb := len(binds[a].Data()), len(binds[b].Data())
	slab := make([]float64, va+vb)
	out := maps.Clone(binds)
	out[a] = tensor.FromData(a, slab[:va], binds[a].Shape()...)
	out[b] = tensor.FromData(b, slab[va:], binds[b].Shape()...)
	return out
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
// shape and loop order, both reporting GFLOP/s. gemm/hand is a pure-Go 2×4
// register tile and mttkrp/hand a plain Go row loop; on amd64, where
// gemm/kernel runs four planes through the SSE2 4×4 tile (leaf.Tile4) and
// mttkrp/kernel holds its output row in SSE2 registers (leaf.HeldRow), each
// hand loop is the slower of its pair.
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
