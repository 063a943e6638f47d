package baselines

import (
	"testing"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/sim"
)

func TestScaLAPACKRunsAndIsSlowerThanDISTAL(t *testing.T) {
	const n, nodes = 8192, 4
	spec, err := ScaLAPACKMatmul(n, nodes)
	if err != nil {
		t.Fatal(err)
	}
	scal, err := spec.Execute(sim.LassenCPU())
	if err != nil {
		t.Fatal(err)
	}
	// DISTAL's SUMMA on the same node count, overlapped, socket-level.
	in, err := algorithms.Matmul(algorithms.SUMMA, algorithms.MatmulConfig{
		N: n, Procs: nodes * 2, ProcsPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := legion.Run(prog, legion.Options{Params: sim.LassenCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if ours.Time >= scal.Time {
		t.Fatalf("DISTAL (%.4fs) should beat synchronous ScaLAPACK (%.4fs)", ours.Time, scal.Time)
	}
}

func TestCTFMatmulRuns(t *testing.T) {
	spec, err := CTFMatmul(4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Execute(sim.LassenCPU())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Flops <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestCOSMAVariants(t *testing.T) {
	for _, tc := range []struct {
		restricted, gpu bool
	}{{false, false}, {true, false}, {false, true}} {
		spec, err := COSMAMatmul(8192, 4, tc.restricted, tc.gpu)
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Execute(sim.LassenCPU())
		if err != nil {
			t.Fatal(err)
		}
		if res.Time <= 0 {
			t.Fatalf("bad time for %+v", tc)
		}
	}
}

func TestCOSMARestrictionSlowsItDown(t *testing.T) {
	full, err := COSMAMatmul(8192, 4, false, false)
	if err != nil {
		t.Fatal(err)
	}
	restr, err := COSMAMatmul(8192, 4, true, false)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := full.Execute(sim.LassenCPU())
	if err != nil {
		t.Fatal(err)
	}
	rres, err := restr.Execute(sim.LassenCPU())
	if err != nil {
		t.Fatal(err)
	}
	if fres.Time >= rres.Time {
		t.Fatalf("full-core COSMA (%.4f) should beat restricted (%.4f)", fres.Time, rres.Time)
	}
}

func TestCTFTTVCollapsesAcrossNodes(t *testing.T) {
	cfg := algorithms.HigherConfig{I: 1024, J: 1024, K: 256}
	per := func(nodes int) float64 {
		spec, err := CTFTTV(cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Execute(sim.LassenCPU())
		if err != nil {
			t.Fatal(err)
		}
		// Bandwidth processed per node per second.
		bytes := float64(cfg.I) * float64(cfg.J) * float64(cfg.K) * 8
		return bytes / res.Time / float64(nodes)
	}
	if one, four := per(1), per(4); four > one {
		t.Fatalf("CTF TTV should not weak-scale upward: %.3g vs %.3g per node", one, four)
	}
}

func TestCTFHigherOrderBuildersRun(t *testing.T) {
	cfg := algorithms.HigherConfig{I: 256, J: 256, K: 64, L: 16}
	for name, build := range map[string]func(algorithms.HigherConfig, int) (*Spec, error){
		"ttv": CTFTTV, "innerprod": CTFInnerprod, "ttm": CTFTTM, "mttkrp": CTFMTTKRP,
	} {
		spec, err := build(cfg, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := spec.Execute(sim.LassenCPU())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Time <= 0 {
			t.Fatalf("%s: bad time", name)
		}
	}
}

func TestFeasibleReplication(t *testing.T) {
	for _, p := range []int{4, 16, 64, 8, 32, 128} {
		c := feasibleReplication(p)
		if p%c != 0 || !algorithms.IsSquare(p/c) {
			t.Fatalf("feasibleReplication(%d) = %d invalid", p, c)
		}
	}
	// 8 ranks: c=2 gives 4 = 2^2.
	if c := feasibleReplication(8); c != 2 {
		t.Fatalf("feasibleReplication(8) = %d, want 2", c)
	}
}
