package sim

import (
	"testing"

	"distal/internal/machine"
)

func flatCPU(n int) *machine.Machine {
	return machine.New(machine.NewGrid(n), machine.SysMem, machine.CPU)
}

func gpuMachine(nodes, gpus int) *machine.Machine {
	child := machine.New(machine.NewGrid(gpus), machine.GPUFBMem, machine.GPU)
	return machine.New(machine.NewGrid(nodes), machine.SysMem, machine.CPU).WithChild(child)
}

func TestComputeRoofline(t *testing.T) {
	p := Params{PeakFlops: 100, MemBandwidth: 10}
	s := New(flatCPU(1), p)
	// Compute-bound: 1000 flops / 100 = 10s vs 10 bytes / 10 = 1s.
	end := s.Compute(0, 1000, 10, 0)
	if end != 10 {
		t.Fatalf("compute-bound end = %v, want 10", end)
	}
	// Bandwidth-bound: 10 flops (0.1s) vs 100 bytes (10s); starts at 10.
	end = s.Compute(0, 10, 100, 0)
	if end != 20 {
		t.Fatalf("bandwidth-bound end = %v, want 20", end)
	}
}

func TestProcessorSerializes(t *testing.T) {
	p := Params{PeakFlops: 1, MemBandwidth: 1e18}
	s := New(flatCPU(2), p)
	a := s.Compute(0, 5, 0, 0)
	b := s.Compute(0, 5, 0, 0) // same proc: serialized
	c := s.Compute(1, 5, 0, 0) // other proc: parallel
	if a != 5 || b != 10 || c != 5 {
		t.Fatalf("ends = %v %v %v, want 5 10 5", a, b, c)
	}
	if s.Makespan() != 10 {
		t.Fatalf("makespan = %v, want 10", s.Makespan())
	}
}

func TestCopyIntraVsInter(t *testing.T) {
	p := Params{IntraBW: 100, InterBW: 10, IntraLatency: 0.5, InterLatency: 2}
	s := New(gpuMachine(2, 2), p)
	// Leaves: (node, gpu) -> flat: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3.
	endIntra := s.Copy(0, 1, 100, 0, false, 1)
	if endIntra != 1.5 { // 100/100 + 0.5
		t.Fatalf("intra copy end = %v, want 1.5", endIntra)
	}
	endInter := s.Copy(0, 2, 100, 0, false, 1)
	if endInter != 13 { // 100/10 + 2, NIC free (different resource than intra ports? src out port busy until 1.0)
		// src out port busy until occupancy end of first copy (1.0): start=1.0,
		// end = 1 + 10 + 2 = 13.
		t.Fatalf("inter copy end = %v, want 13", endInter)
	}
	if s.IntraBytes != 100 || s.InterBytes != 100 {
		t.Fatalf("bytes = %d/%d", s.IntraBytes, s.InterBytes)
	}
}

func TestNICContention(t *testing.T) {
	// Two copies out of the same node to different destinations serialize on
	// the source NIC: the broadcast hotspot.
	p := Params{InterBW: 10, InterLatency: 0}
	s := New(gpuMachine(3, 2), p)
	e1 := s.Copy(0, 2, 100, 0, false, 1) // node0 gpu0 -> node1
	e2 := s.Copy(1, 4, 100, 0, false, 1) // node0 gpu1 -> node2: same NIC
	if e1 != 10 || e2 != 20 {
		t.Fatalf("ends = %v %v, want 10 20", e1, e2)
	}
}

func TestDistinctNICsParallel(t *testing.T) {
	p := Params{InterBW: 10, InterLatency: 0}
	s := New(flatCPU(4), p)
	e1 := s.Copy(0, 2, 100, 0, false, 1)
	e2 := s.Copy(1, 3, 100, 0, false, 1) // different src and dst nodes
	if e1 != 10 || e2 != 10 {
		t.Fatalf("ends = %v %v, want both 10", e1, e2)
	}
}

func TestGPUSourcePenalty(t *testing.T) {
	p := Params{InterBW: 25, SrcPenaltyBW: 18, InterLatency: 0}
	s := New(gpuMachine(2, 1), p)
	fast := s.CopyEstimate(0, 1, 1800, 0, false, 1)
	slow := s.CopyEstimate(0, 1, 1800, 0, true, 1)
	if fast >= slow {
		t.Fatalf("GPU-source copy should be slower: %v vs %v", fast, slow)
	}
	if slow != 100 { // 1800/18
		t.Fatalf("slow = %v, want 100", slow)
	}
}

func TestReplicaOverhead(t *testing.T) {
	p := Params{InterBW: 1e18, InterLatency: 0, ReplicaOverhead: 1}
	s := New(flatCPU(2), p)
	if end := s.Copy(0, 1, 8, 0, false, 5); end < 5 {
		t.Fatalf("end = %v, want >= 5 from replica overhead", end)
	}
}

func TestMemoryAccounting(t *testing.T) {
	p := Params{MemCapacity: 100}
	s := New(flatCPU(2), p)
	s.Alloc(0, 60)
	s.Alloc(0, 30)
	s.Free(0, 50)
	s.Alloc(0, 10)
	if s.PeakMem() != 90 {
		t.Fatalf("peak = %d, want 90", s.PeakMem())
	}
	if oom, _, _ := s.OOM(); oom {
		t.Fatal("should not be OOM under capacity")
	}
	s.Alloc(1, 150)
	oom, proc, bytes := s.OOM()
	if !oom || proc != 1 || bytes != 150 {
		t.Fatalf("OOM = %v/%d/%d", oom, proc, bytes)
	}
}

func TestFreeBelowZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(flatCPU(1), Params{}).Free(0, 10)
}

func TestCopyEstimateDoesNotCommit(t *testing.T) {
	p := Params{InterBW: 10, InterLatency: 0}
	s := New(flatCPU(2), p)
	_ = s.CopyEstimate(0, 1, 100, 0, false, 1)
	if e := s.Copy(0, 1, 100, 0, false, 1); e != 10 {
		t.Fatalf("estimate must not occupy resources; end = %v, want 10", e)
	}
	if s.CopyCount != 1 {
		t.Fatalf("copy count = %d, want 1", s.CopyCount)
	}
}

func TestBarrier(t *testing.T) {
	p := Params{PeakFlops: 1, MemBandwidth: 1e18}
	s := New(flatCPU(2), p)
	s.Compute(0, 10, 0, 0)
	s.Compute(1, 2, 0, 0)
	if tb := s.Barrier(); tb != 10 {
		t.Fatalf("barrier = %v, want 10", tb)
	}
	if end := s.Compute(1, 1, 0, 0); end != 11 {
		t.Fatalf("post-barrier compute end = %v, want 11", end)
	}
}

func TestLassenParamsSanity(t *testing.T) {
	cpu := LassenCPU()
	if cpu.PeakFlops >= LassenCPUFullCores().PeakFlops {
		t.Fatal("runtime-core tax should reduce CPU peak")
	}
	gpu := LassenGPU()
	if gpu.PeakFlops <= cpu.PeakFlops {
		t.Fatal("GPU peak should exceed CPU peak")
	}
	if gpu.SrcPenaltyBW >= gpu.InterBW {
		t.Fatal("source penalty should be slower than the NIC peak")
	}
	if gpu.MemCapacity >= cpu.MemCapacity {
		t.Fatal("GPU framebuffer is smaller than host DRAM")
	}
}

func TestNodeOfLeaves(t *testing.T) {
	s := New(gpuMachine(2, 4), Params{})
	if s.LeafGrid().Size() != 8 {
		t.Fatalf("leaves = %d, want 8", s.LeafGrid().Size())
	}
	if s.NodeOf(3) != 0 || s.NodeOf(4) != 1 {
		t.Fatalf("NodeOf wrong: %d %d", s.NodeOf(3), s.NodeOf(4))
	}
}

// TestCopyEstimateDecomposition: CopyEstimate must equal exactly
// CopyStart + CopyClassCost — ensureLocal's cheapest-source shortcut prices
// each cost class once and relies on this identity for its selection to be
// bit-identical to an exhaustive per-candidate estimate.
func TestCopyEstimateDecomposition(t *testing.T) {
	p := Params{IntraBW: 40, InterBW: 10, IntraLatency: 1e-6, InterLatency: 5e-6, ReplicaOverhead: 1e-7}
	s := New(gpuMachine(2, 2), p) // 2 nodes x 2 GPUs: leaves 0,1 | 2,3
	// Commit some traffic so ports and NICs have non-trivial availability.
	s.Copy(0, 2, 100, 0, true, 1)
	s.Copy(1, 0, 64, 0.001, true, 2)
	cases := []struct {
		src, dst int
		bytes    int64
		ready    float64
		gpu      bool
		replicas int
	}{
		{0, 1, 800, 0, true, 1},   // intra-node
		{0, 3, 800, 0, true, 3},   // inter-node, busy NIC
		{2, 3, 160, 0.5, true, 2}, // intra-node on the far node
		{3, 0, 160, 0, false, 4},  // inter-node reverse
	}
	for _, c := range cases {
		want := s.CopyEstimate(c.src, c.dst, c.bytes, c.ready, c.gpu, c.replicas)
		got := s.CopyStart(c.src, c.dst, c.ready) + s.CopyClassCost(c.src, c.dst, c.bytes, c.gpu, c.replicas)
		if got != want {
			t.Fatalf("copy %d->%d: start+classCost = %v, CopyEstimate = %v", c.src, c.dst, got, want)
		}
	}
	// Same-class sources toward one destination share CopyClassCost.
	if s.CopyClassCost(0, 2, 320, true, 2) != s.CopyClassCost(1, 2, 320, true, 2) {
		t.Fatal("sources in one cost class must share CopyClassCost")
	}
	if !s.SameNode(0, 1) || s.SameNode(1, 2) {
		t.Fatal("SameNode misclassifies the leaf grid")
	}
}
