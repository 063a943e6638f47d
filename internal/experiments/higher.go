package experiments

import (
	"fmt"

	"distal/internal/algorithms"
	"distal/internal/baselines"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/sim"
)

// HigherKernel names one of the §7.2 kernels.
type HigherKernel string

const (
	TTV       HigherKernel = "ttv"
	Innerprod HigherKernel = "innerprod"
	TTM       HigherKernel = "ttm"
	MTTKRP    HigherKernel = "mttkrp"
)

// HigherKernels lists the kernels in the paper's order (Fig. 16a-d).
var HigherKernels = []HigherKernel{TTV, Innerprod, TTM, MTTKRP}

// higher holds, per kernel, the single-node base extents, chosen (like the
// paper) to be just large enough to reach peak on one node; DISTAL's
// schedule of the kernel; and CTF's model of it.
var higher = map[HigherKernel]struct {
	base algorithms.HigherConfig
	ours func(algorithms.HigherConfig) (core.Input, error)
	ctf  func(algorithms.HigherConfig, int) (*baselines.Spec, error)
}{
	TTV:       {algorithms.HigherConfig{I: 1024, J: 1024, K: 512}, algorithms.TTV, baselines.CTFTTV},
	Innerprod: {algorithms.HigherConfig{I: 1024, J: 1024, K: 512}, algorithms.Innerprod, baselines.CTFInnerprod},
	TTM:       {algorithms.HigherConfig{I: 768, J: 768, K: 768, L: 32}, algorithms.TTM, baselines.CTFTTM},
	MTTKRP:    {algorithms.HigherConfig{I: 768, J: 768, K: 768, L: 32}, algorithms.MTTKRP, baselines.CTFMTTKRP},
}

// bandwidthBound reports whether the paper plots the kernel in GB/s rather
// than GFLOP/s.
func bandwidthBound(k HigherKernel) bool { return k == TTV || k == Innerprod }

// scaleHigher weak-scales the base extents with the processor count
// (constant memory per node): 3-tensor extents grow with cbrt(nodes).
func scaleHigher(k HigherKernel, nodes int) algorithms.HigherConfig {
	cfg := higher[k].base
	cfg.I = weakScaledCube(cfg.I, nodes)
	cfg.J = weakScaledCube(cfg.J, nodes)
	cfg.K = weakScaledCube(cfg.K, nodes)
	return cfg
}

// kernelBytes is the tensor data processed by the kernel, the numerator of
// the GB/s metric.
func kernelBytes(k HigherKernel, cfg algorithms.HigherConfig) float64 {
	bt := float64(cfg.I) * float64(cfg.J) * float64(cfg.K) * 8
	switch k {
	case TTV:
		return bt + float64(cfg.K)*8 + float64(cfg.I)*float64(cfg.J)*8
	case Innerprod:
		return 2 * bt
	default:
		return bt
	}
}

// Fig16 regenerates one panel of Figure 16: DISTAL vs CTF for a kernel on
// CPUs or GPUs, weak scaled.
func Fig16(kernel HigherKernel, gpu bool, maxNodes int) (*Figure, error) {
	if _, ok := higher[kernel]; !ok {
		return nil, fmt.Errorf("experiments: unknown kernel %q", kernel)
	}
	yl := "GFLOP/s per node"
	if bandwidthBound(kernel) {
		yl = "GB/s per node"
	}
	target := "CPU"
	if gpu {
		target = "GPU"
	}
	fig := &Figure{
		ID:     fmt.Sprintf("fig16-%s-%s", kernel, target),
		Title:  fmt.Sprintf("%s weak scaling (%s)", kernel, target),
		YLabel: yl,
	}
	ours := Series{Name: "Ours"}
	ctf := Series{Name: "CTF"}
	for _, nodes := range nodeCounts(maxNodes) {
		cfg := scaleHigher(kernel, nodes)
		if gpu {
			cfg.Procs, cfg.ProcsPerNode, cfg.GPU = nodes*4, 4, true
		} else {
			cfg.Procs, cfg.ProcsPerNode = nodes*2, 2
		}
		in, err := higher[kernel].ours(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig16 %s@%d: %w", kernel, nodes, err)
		}
		params := sim.LassenCPU()
		if gpu {
			params = sim.LassenGPU()
		}
		res, err := runInput(in, params)
		if err != nil {
			return nil, fmt.Errorf("fig16 %s@%d: %w", kernel, nodes, err)
		}
		ours.Points = append(ours.Points, higherPoint(kernel, cfg, res, nodes))

		if !gpu { // the paper could not build CTF's GPU backend (§7.2)
			spec, err := higher[kernel].ctf(cfg, nodes)
			if err != nil {
				return nil, fmt.Errorf("fig16 ctf %s@%d: %w", kernel, nodes, err)
			}
			cres, err := spec.Execute(sim.LassenCPU())
			if err != nil {
				return nil, fmt.Errorf("fig16 ctf %s@%d: %w", kernel, nodes, err)
			}
			ctf.Points = append(ctf.Points, higherPoint(kernel, cfg, cres, nodes))
		}
	}
	fig.Series = append(fig.Series, ours)
	if !gpu {
		fig.Series = append(fig.Series, ctf)
	}
	return fig, nil
}

func higherPoint(kernel HigherKernel, cfg algorithms.HigherConfig, res *legion.Result, nodes int) Point {
	if res.OOM {
		return Point{Nodes: nodes, OOM: true}
	}
	if bandwidthBound(kernel) {
		return Point{Nodes: nodes, Value: kernelBytes(kernel, cfg) / res.Time / 1e9 / float64(nodes)}
	}
	return Point{Nodes: nodes, Value: res.Flops / res.Time / 1e9 / float64(nodes)}
}
