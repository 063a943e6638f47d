package algorithms

import (
	"maps"
	"testing"

	"distal/internal/core"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/sim"
	"distal/internal/tensor"
)

func testParams() sim.Params {
	return sim.Params{
		PeakFlops:    1e9,
		MemBandwidth: 1e12,
		MemCapacity:  1 << 40,
		IntraBW:      5e9,
		InterBW:      1e9,
		IntraLatency: 1e-6,
		InterLatency: 5e-6,
	}
}

// validate compiles and executes on fresh data bound to the execution,
// comparing against the reference evaluator.
func validate(t *testing.T, in core.Input) *legion.Result {
	t.Helper()
	data := RandomData(in)
	lhs := in.Stmt.LHS.Tensor
	inputs := maps.Clone(data)
	delete(inputs, lhs)
	want, err := ir.Evaluate(in.Stmt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := legion.Run(prog, legion.Options{Params: testParams(), Real: true, Batch: []map[string]*tensor.Dense{data}})
	if err != nil {
		t.Fatal(err)
	}
	got := data[lhs]
	if want.Rank() == 0 {
		if d := want.At() - got.At(0); d > 1e-9 || d < -1e-9 {
			t.Fatalf("scalar = %v, want %v", got.At(0), want.At())
		}
		return res
	}
	if !got.EqualWithin(want, 1e-9) {
		t.Fatalf("result differs from reference by %v", got.MaxAbsDiff(want))
	}
	return res
}

// TestFig9AllMatmulsCorrect validates every algorithm in Figure 9 against
// the reference evaluator (experiment E7 correctness half).
func TestFig9AllMatmulsCorrect(t *testing.T) {
	for _, alg := range MatmulAlgs {
		for _, procs := range []int{4, 8} {
			cfg := MatmulConfig{N: 12, Procs: procs}
			in, err := Matmul(alg, cfg)
			if err != nil {
				t.Fatalf("%s/p=%d: %v", alg, procs, err)
			}
			t.Run(string(alg), func(t *testing.T) { validate(t, in) })
		}
	}
}

func TestFig9PerfectCubeJohnson(t *testing.T) {
	in, err := Matmul(Johnson, MatmulConfig{N: 12, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if g := in.Machine.Grid.Dims; len(g) != 3 || g[0] != 2 || g[1] != 2 || g[2] != 2 {
		t.Fatalf("Johnson grid = %v, want cube", g)
	}
	validate(t, in)
}

func TestSolomonikReplicationChoice(t *testing.T) {
	// p = 16: c can be 1 (g=4) or 4 (g=2); pickReplication should find a
	// c > 1 option within cbrt bound: cbrt(16) ~ 2.5, so c = 1.
	if c := pickReplication(16); c != 1 {
		t.Fatalf("pickReplication(16) = %d, want 1", c)
	}
	// p = 32: c=2 gives g=4 (16*2=32), cbrt(32) ~ 3.1: c = 2.
	if c := pickReplication(32); c != 2 {
		t.Fatalf("pickReplication(32) = %d, want 2", c)
	}
}

func TestSolomonikBadConfigRejected(t *testing.T) {
	if _, err := Matmul(Solomonik, MatmulConfig{N: 8, Procs: 12, ReplicationC: 5}); err == nil {
		t.Fatal("p/c not square should be rejected")
	}
}

// TestCannonUsesLessBroadcastTrafficThanSUMMAOwnerOnly: with nearest-source
// selection disabled, SUMMA repeatedly pulls the same chunk from its owner,
// while Cannon's rotation spreads sources evenly. Simulated time for Cannon
// should not exceed owner-only SUMMA on an all-inter-node machine.
func TestCannonVsSUMMAContention(t *testing.T) {
	run := func(alg Alg, ownerOnly bool) float64 {
		in, err := Matmul(alg, MatmulConfig{N: 1 << 10, Procs: 16})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Compile(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := legion.Run(prog, legion.Options{Params: testParams(), OwnerOnly: ownerOnly})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	cannon := run(Cannon, true)
	summa := run(SUMMA, true)
	if cannon > summa*1.05 {
		t.Fatalf("Cannon (%v) should not be slower than owner-only SUMMA (%v)", cannon, summa)
	}
}

// TestJohnsonUsesMoreMemory: 3D algorithms trade memory for communication;
// at larger processor counts the per-processor working set of Johnson's
// broadcast blocks dominates SUMMA's double-buffered chunks.
func TestJohnsonMemoryVsSUMMA(t *testing.T) {
	mem := func(alg Alg) int64 {
		in, err := Matmul(alg, MatmulConfig{N: 1 << 9, Procs: 64})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Compile(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := legion.Run(prog, legion.Options{Params: testParams()})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakMemBytes
	}
	if mem(Johnson) <= mem(SUMMA) {
		t.Fatal("Johnson should use more per-processor memory than SUMMA")
	}
}

func TestHigherOrderKernelsCorrect(t *testing.T) {
	cfg := HigherConfig{I: 8, J: 6, K: 4, L: 3, Procs: 4}
	builders := map[string]func(HigherConfig) (core.Input, error){
		"TTV":       TTV,
		"Innerprod": Innerprod,
		"TTM":       TTM,
		"MTTKRP":    MTTKRP,
	}
	for name, build := range builders {
		in, err := build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { validate(t, in) })
	}
}

// TestTTVAndTTMZeroInterNodeComm: the point of the paper's schedules for
// these kernels (§7.2.2) is that aligned distributions eliminate
// communication entirely.
func TestTTVAndTTMZeroComm(t *testing.T) {
	for name, build := range map[string]func(HigherConfig) (core.Input, error){"TTV": TTV, "TTM": TTM} {
		in, err := build(HigherConfig{I: 16, J: 16, K: 16, L: 8, Procs: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := core.Compile(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := legion.Run(prog, legion.Options{Params: testParams()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Copies != 0 {
			t.Errorf("%s: expected zero communication, got %d copies", name, res.Copies)
		}
	}
}

// TestMTTKRPReduces: partial results must be combined into the output
// owners across the replicated grid dimensions.
func TestMTTKRPReduces(t *testing.T) {
	in, err := MTTKRP(HigherConfig{I: 8, J: 8, K: 8, L: 4, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := legion.Run(prog, legion.Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies == 0 {
		t.Fatal("MTTKRP on a 3D grid must reduce partial results")
	}
}

func TestMatmulConfigValidation(t *testing.T) {
	if _, err := Matmul(SUMMA, MatmulConfig{}); err == nil {
		t.Fatal("empty config should fail")
	}
	if _, err := Matmul(Alg("nope"), MatmulConfig{N: 4, Procs: 4}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := TTV(HigherConfig{}); err == nil {
		t.Fatal("empty higher-order config should fail")
	}
	if _, err := TTM(HigherConfig{I: 2, J: 2, K: 2, Procs: 2}); err == nil {
		t.Fatal("TTM without L should fail")
	}
}
