package core

import (
	"testing"

	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/machine"
	"distal/internal/schedule"
	"distal/internal/sim"
	"distal/internal/tensor"
)

func testParams() sim.Params {
	return sim.Params{
		PeakFlops:    1e9,
		MemBandwidth: 1e12,
		MemCapacity:  1 << 40,
		IntraBW:      1e9,
		InterBW:      1e9,
		IntraLatency: 1e-6,
		InterLatency: 1e-6,
	}
}

// runAndCheck compiles, executes on real data bound to the execution, and
// compares against the reference evaluator. Every tensor gets fresh data,
// filled from its seed in seeds (zero when it has none). It returns the
// execution result for extra checks.
func runAndCheck(t *testing.T, in Input, seeds map[string]int64) *legion.Result {
	t.Helper()
	lhs := in.Stmt.LHS.Tensor
	data := map[string]*tensor.Dense{}
	inputs := map[string]*tensor.Dense{}
	for name, d := range in.Tensors {
		data[name] = tensor.New(name, d.Shape...)
		if seed := seeds[name]; seed != 0 {
			data[name].FillRandom(seed)
		}
		if name != lhs {
			inputs[name] = data[name]
		} else if in.Stmt.Increment {
			inputs[name] = data[name].Clone("")
		}
	}
	want, err := ir.Evaluate(in.Stmt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := legion.Run(prog, legion.Options{Params: testParams(), Real: true, Batch: []map[string]*tensor.Dense{data}})
	if err != nil {
		t.Fatal(err)
	}
	got := data[lhs]
	// The reference may be rank-0 for scalar outputs while the distributed
	// pipeline uses rank-1 unit tensors.
	if want.Rank() == 0 && got.Rank() == 1 {
		if d := want.At() - got.At(0); d > 1e-9 || d < -1e-9 {
			t.Fatalf("scalar result = %v, want %v", got.At(0), want.At())
		}
		return res
	}
	if !got.EqualWithin(want, 1e-9) {
		t.Fatalf("distributed result differs from reference by %v", got.MaxAbsDiff(want))
	}
	return res
}

// gemmSeeds fills gemmInput's inputs.
var gemmSeeds = map[string]int64{"B": 7, "C": 8}

func gemmInput(t *testing.T, n, gx, gy int, build func(*schedule.Schedule) *schedule.Schedule) Input {
	t.Helper()
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	m := machine.New(machine.NewGrid(gx, gy), machine.SysMem, machine.CPU)
	tiled := distnot.NewPlacement(distnot.MustParse("xy->xy"))
	mk := func(name string) *TensorDecl {
		return &TensorDecl{Name: name, Shape: []int{n, n}, Placement: tiled}
	}
	s := schedule.New(stmt)
	if build != nil {
		s = build(s)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	return Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*TensorDecl{
			"A": mk("A"), "B": mk("B"), "C": mk("C"),
		},
		Schedule: s,
	}
}

func TestCompileUnscheduledSingleTask(t *testing.T) {
	in := gemmInput(t, 6, 1, 1, nil)
	res := runAndCheck(t, in, gemmSeeds)
	if res.Copies != 0 {
		t.Fatalf("single-proc run should not copy, got %d", res.Copies)
	}
	// 6*6*6 points x 2 flops.
	if res.Flops != 432 {
		t.Fatalf("flops = %v, want 432", res.Flops)
	}
}

func TestCompileSUMMA(t *testing.T) {
	in := gemmInput(t, 8, 2, 2, func(s *schedule.Schedule) *schedule.Schedule {
		return s.
			DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
			Split("k", "ko", "ki", 4).
			Reorder("ko", "ii", "ji", "ki").
			Communicate("jo", "A").
			Communicate("ko", "B", "C")
	})
	prog, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	// k extent 8 split by 4 -> 2 sequential launches.
	if len(prog.Launches) != 2 {
		t.Fatalf("launches = %d, want 2", len(prog.Launches))
	}
	if prog.Launches[0].Domain.Size() != 4 {
		t.Fatalf("domain size = %d, want 4", prog.Launches[0].Domain.Size())
	}
	res := runAndCheck(t, in, gemmSeeds)
	// Each proc owns its A tile (no comm) and fetches remote chunks of B and
	// C: per step, 2 procs per row need a remote B chunk and 2 per column a
	// remote C chunk.
	if res.Copies == 0 {
		t.Fatal("SUMMA on 2x2 must communicate")
	}
	if res.Flops != 2*8*8*8 {
		t.Fatalf("flops = %v, want %v", res.Flops, 2*8*8*8)
	}
}

func TestCompileCannonRotation(t *testing.T) {
	in := gemmInput(t, 9, 3, 3, func(s *schedule.Schedule) *schedule.Schedule {
		return s.
			DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{3, 3}).
			Divide("k", "ko", "ki", 3).
			Reorder("ko", "ii", "ji", "ki").
			Rotate("ko", []string{"io", "jo"}, "kos").
			Communicate("jo", "A").
			Communicate("kos", "B", "C")
	})
	runAndCheck(t, in, gemmSeeds)
}

func TestCompileJohnson(t *testing.T) {
	// 3D algorithm on a 2x2x2 machine: distributed reduction over ko.
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	m := machine.New(machine.NewGrid(2, 2, 2), machine.SysMem, machine.CPU)
	n := 8
	mk := func(name, place string) *TensorDecl {
		return &TensorDecl{Name: name, Shape: []int{n, n}, Placement: distnot.NewPlacement(distnot.MustParse(place))}
	}
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j", "k"}, []string{"io", "jo", "ko"}, []string{"ii", "ji", "ki"}, []int{2, 2, 2}).
		Communicate("ko", "A", "B", "C")
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	in := Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*TensorDecl{
			"A": mk("A", "xy->xy0"),
			"B": mk("B", "xz->x0z"),
			"C": mk("C", "zy->0yz"),
		},
		Schedule: s,
	}
	res := runAndCheck(t, in, map[string]int64{"B": 3, "C": 4})
	if res.Copies == 0 {
		t.Fatal("Johnson's algorithm must broadcast and reduce")
	}
}

func TestCompileTTV(t *testing.T) {
	stmt := ir.MustParse("A(i,j) = B(i,j,k) * c(k)")
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
		Communicate("jo", "A", "B", "c")
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	in := Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*TensorDecl{
			"A": {Name: "A", Shape: []int{4, 4}, Placement: distnot.NewPlacement(distnot.MustParse("xy->xy"))},
			"B": {Name: "B", Shape: []int{4, 4, 5}, Placement: distnot.NewPlacement(distnot.MustParse("xyz->xy"))},
			"c": {Name: "c", Shape: []int{5}, Placement: distnot.NewPlacement(distnot.MustParse("x->**"))},
		},
		Schedule: s,
	}
	res := runAndCheck(t, in, map[string]int64{"B": 5, "c": 6})
	// B and A are aligned and c is replicated: a pure element-wise
	// distribution with no communication (§7.2.2 TTV).
	if res.Copies != 0 {
		t.Fatalf("TTV with aligned distribution should not communicate, got %d copies", res.Copies)
	}
}

func TestCompileInnerProductScalar(t *testing.T) {
	stmt := ir.MustParse("a = B(i,j,k) * C(i,j,k)")
	m := machine.New(machine.NewGrid(4), machine.SysMem, machine.CPU)
	cube := distnot.NewPlacement(distnot.MustParse("xyz->x"))
	s := schedule.New(stmt).
		Divide("i", "io", "ii", 4).
		Reorder("io", "ii", "j", "k").
		Distribute("io").
		Communicate("io", "B", "C")
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	in := Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*TensorDecl{
			"a": {Name: "a", Shape: []int{1}, Placement: distnot.NewPlacement(distnot.MustParse("x->0"))},
			"B": {Name: "B", Shape: []int{4, 3, 3}, Placement: cube},
			"C": {Name: "C", Shape: []int{4, 3, 3}, Placement: cube},
		},
		Schedule: s,
	}
	runAndCheck(t, in, map[string]int64{"B": 9, "C": 10})
}

func TestCompileMTTKRP(t *testing.T) {
	stmt := ir.MustParse("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)")
	m := machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU)
	nI, nJ, nK, nL := 4, 4, 4, 3
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
		Communicate("jo", "A", "B", "C", "D")
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	in := Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*TensorDecl{
			"A": {Name: "A", Shape: []int{nI, nL}, Placement: distnot.NewPlacement(distnot.MustParse("xy->x*"))},
			"B": {Name: "B", Shape: []int{nI, nJ, nK}, Placement: distnot.NewPlacement(distnot.MustParse("xyz->xy"))},
			"C": {Name: "C", Shape: []int{nJ, nL}, Placement: distnot.NewPlacement(distnot.MustParse("xy->y*"))},
			"D": {Name: "D", Shape: []int{nK, nL}, Placement: distnot.NewPlacement(distnot.MustParse("xy->0*"))},
		},
		Schedule: s,
	}
	runAndCheck(t, in, map[string]int64{"B": 11, "C": 12, "D": 13})
}

func TestCompileNonDivisibleSizes(t *testing.T) {
	// 7x7 matrices on a 2x2 grid: ragged blocks must clamp correctly.
	in := gemmInput(t, 7, 2, 2, func(s *schedule.Schedule) *schedule.Schedule {
		return s.
			DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
			Split("k", "ko", "ki", 3).
			Reorder("ko", "ii", "ji", "ki").
			Communicate("jo", "A").
			Communicate("ko", "B", "C")
	})
	res := runAndCheck(t, in, gemmSeeds)
	// Exactly 7*7*7 iteration points despite ragged 4-blocks.
	if res.Flops != 2*7*7*7 {
		t.Fatalf("flops = %v, want %v", res.Flops, 2*7*7*7)
	}
}

func TestCompileIncrement(t *testing.T) {
	in := gemmInput(t, 6, 2, 2, func(s *schedule.Schedule) *schedule.Schedule {
		return s.DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
			Communicate("jo", "A", "B", "C")
	})
	in.Stmt = ir.MustParse("A(i,j) += B(i,k) * C(k,j)")
	in.Schedule = schedule.New(in.Stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
		Communicate("jo", "A", "B", "C")
	runAndCheck(t, in, map[string]int64{"A": 20, "B": 7, "C": 8})
}

func TestCompileErrors(t *testing.T) {
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	m := machine.New(machine.NewGrid(2), machine.SysMem, machine.CPU)
	if _, err := Compile(Input{Stmt: stmt, Machine: m, Tensors: map[string]*TensorDecl{}}); err == nil {
		t.Fatal("missing tensor decls should fail")
	}
	// Schedule for a different statement.
	other := schedule.New(ir.MustParse("X(i) = Y(i)"))
	decls := map[string]*TensorDecl{
		"A": {Name: "A", Shape: []int{4, 4}},
		"B": {Name: "B", Shape: []int{4, 4}},
		"C": {Name: "C", Shape: []int{4, 4}},
	}
	if _, err := Compile(Input{Stmt: stmt, Machine: m, Tensors: decls, Schedule: other}); err == nil {
		t.Fatal("mismatched schedule should fail")
	}
	// Bad placement rank.
	decls["A"].Placement = distnot.NewPlacement(distnot.MustParse("xyz->x"))
	if _, err := Compile(Input{Stmt: stmt, Machine: m, Tensors: decls}); err == nil {
		t.Fatal("bad placement should fail")
	}
}

func TestSimulatedExecutionMatchesStructure(t *testing.T) {
	// A simulated (no data) run of the same program must produce identical
	// copy counts and flop totals as the real run.
	mkIn := func() Input {
		return gemmInput(t, 8, 2, 2, func(s *schedule.Schedule) *schedule.Schedule {
			return s.
				DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
				Split("k", "ko", "ki", 4).
				Reorder("ko", "ii", "ji", "ki").
				Communicate("jo", "A").
				Communicate("ko", "B", "C")
		})
	}
	realIn := mkIn()
	realRes := runAndCheck(t, realIn, gemmSeeds)
	simIn := mkIn()
	prog, err := Compile(simIn)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := legion.Run(prog, legion.Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Copies != realRes.Copies || simRes.Flops != realRes.Flops {
		t.Fatalf("sim run diverges: copies %d vs %d, flops %v vs %v",
			simRes.Copies, realRes.Copies, simRes.Flops, realRes.Flops)
	}
	if simRes.Time <= 0 {
		t.Fatal("simulated time should be positive")
	}
}
