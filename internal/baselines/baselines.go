// Package baselines models the systems the DISTAL paper compares against —
// ScaLAPACK, the Cyclops Tensor Framework (CTF), and the reference COSMA
// implementation — by reproducing their documented mechanisms rather than
// their numbers:
//
//   - ScaLAPACK runs SUMMA with one MPI rank per core group (4 ranks per
//     node performed best in the paper), synchronous broadcasts (no
//     communication/computation overlap), and owner-only copy sources.
//   - CTF runs Solomonik's 2.5D algorithm under the same rank decomposition
//     and synchrony; higher-order kernels are cast to distributed matrix
//     multiplications after a redistribution/reshape pass that moves the
//     tensors across the machine (§7.2's explanation for CTF's slowdowns).
//   - COSMA uses its optimal decomposition with full overlap and all cores;
//     on GPUs it stages data out-of-core from host memory (halving GEMM
//     throughput but avoiding both the framebuffer DMA penalty and
//     framebuffer capacity limits).
//
// Every baseline returns a Spec: the system's computation written as a
// DISTAL request on its machine, plus the execution options and cost-model
// transforms that express the system's mechanisms.
package baselines

import (
	"fmt"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/machine"
	"distal/internal/request"
	"distal/internal/sim"
)

// RanksPerNode is how ScaLAPACK and CTF decompose a node (§7.1).
const RanksPerNode = 4

// Spec is a runnable baseline configuration.
type Spec struct {
	Name    string
	Machine *machine.Machine
	Request request.Request
	// Sync disables communication/computation overlap.
	Sync bool
	// OwnerOnly disables nearest-valid-copy sourcing (MPI-style fixed
	// communication partners).
	OwnerOnly bool
	// Params transforms the per-leaf cost model before execution.
	Params func(sim.Params) sim.Params
	// ExtraSeconds is time spent outside the simulated program (e.g. CTF's
	// redistribution and reshape passes).
	ExtraSeconds float64
	// ExtraInterBytes is communication performed outside the simulated
	// program, reported alongside the result.
	ExtraInterBytes int64
}

// Execute compiles and runs the spec under the given base cost model.
func (s *Spec) Execute(base sim.Params) (*legion.Result, error) {
	params := base
	if s.Params != nil {
		params = s.Params(base)
	}
	in, err := request.Build(s.Request, s.Machine)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", s.Name, err)
	}
	prog, err := core.Compile(in)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", s.Name, err)
	}
	res, err := legion.Run(prog, legion.Options{
		Params:      params,
		Synchronous: s.Sync,
		OwnerOnly:   s.OwnerOnly,
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", s.Name, err)
	}
	res.Time += s.ExtraSeconds
	res.InterBytes += s.ExtraInterBytes
	return res, nil
}

// mpiSpec is a baseline under the MPI rank decomposition ScaLAPACK and CTF
// share: synchronous broadcasts, owner-only copy sources, and the per-rank
// cost model.
func mpiSpec(name string, m *machine.Machine, req request.Request) *Spec {
	p := sim.LassenCPURanks(RanksPerNode)
	return &Spec{Name: name, Machine: m, Request: req, Sync: true, OwnerOnly: true,
		Params: func(sim.Params) sim.Params { return p }}
}

// ScaLAPACKMatmul models pdgemm on the given number of nodes: SUMMA over a
// rank-per-core-group grid with synchronous broadcasts.
func ScaLAPACKMatmul(n, nodes int) (*Spec, error) {
	m, req, err := algorithms.MatmulRequest(algorithms.SUMMA, algorithms.MatmulConfig{
		N:            n,
		Procs:        nodes * RanksPerNode,
		ProcsPerNode: RanksPerNode,
	})
	if err != nil {
		return nil, err
	}
	return mpiSpec("ScaLAPACK", m, req), nil
}

// CTFMatmul models CTF's 2.5D matrix multiplication under the same rank
// decomposition.
func CTFMatmul(n, nodes int) (*Spec, error) {
	procs := nodes * RanksPerNode
	m, req, err := algorithms.MatmulRequest(algorithms.Solomonik, algorithms.MatmulConfig{
		N:            n,
		Procs:        procs,
		ProcsPerNode: RanksPerNode,
		ReplicationC: feasibleReplication(procs),
	})
	if err != nil {
		return nil, err
	}
	return mpiSpec("CTF", m, req), nil
}

// feasibleReplication picks a c with p/c a perfect square, preferring c > 1
// (2.5D) when available.
func feasibleReplication(p int) int {
	best := 0
	for c := 1; c*c*c <= p*8; c++ {
		if p%c == 0 && algorithms.IsSquare(p/c) {
			best = c
		}
	}
	if best == 0 {
		best = 1
	}
	return best
}

// COSMAMatmul models the reference COSMA implementation. restricted limits
// it to the cores DISTAL can use (the paper's "COSMA (Restricted CPUs)"
// line); gpu selects the out-of-core GPU configuration.
func COSMAMatmul(n, nodes int, restricted, gpu bool) (*Spec, error) {
	cfg := algorithms.MatmulConfig{N: n}
	var params func(sim.Params) sim.Params
	switch {
	case gpu:
		cfg.Procs = nodes * 4
		cfg.ProcsPerNode = 4
		cfg.GPU = true
		cfg.MemWords = 256 * sim.GiB / 8 / 4 // host memory per GPU's share
		params = func(p sim.Params) sim.Params {
			// Out-of-core GEMM from host memory: roughly half of peak on a
			// V100, but no framebuffer DMA penalty and host-sized memory.
			p.PeakFlops *= 0.5
			p.SrcPenaltyBW = 0
			p.MemCapacity = 256 * sim.GiB / 4
			return p
		}
	case restricted:
		cfg.Procs = nodes * 2
		cfg.ProcsPerNode = 2
		cfg.MemWords = 128 * sim.GiB / 8
		params = func(p sim.Params) sim.Params { return sim.LassenCPU() }
	default:
		cfg.Procs = nodes * 2
		cfg.ProcsPerNode = 2
		cfg.MemWords = 128 * sim.GiB / 8
		params = func(p sim.Params) sim.Params { return sim.LassenCPUFullCores() }
	}
	m, req, err := algorithms.MatmulRequest(algorithms.COSMA, cfg)
	if err != nil {
		return nil, err
	}
	name := "COSMA"
	if restricted {
		name = "COSMA (Restricted CPUs)"
	}
	return &Spec{Name: name, Machine: m, Request: req, Params: params}, nil
}
