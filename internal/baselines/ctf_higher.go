package baselines

import (
	"distal/internal/algorithms"
	"distal/internal/cosma"
	"distal/internal/request"
	"distal/internal/sim"
)

// CTF casts every higher-order tensor contraction into distributed matrix
// multiplications by reshaping and redistributing the tensors (§8, [34]).
// The constructors below write the equivalent rectangular matmul under
// CTF's rank decomposition and charge the redistribution passes explicitly.

// summaRect is CTF running a rectangular SUMMA
// A[mI,mJ] = B[mI,mK] * C[mK,mJ] on a rank grid shaped to minimize the
// per-rank panel traffic (mI*mK/gx + mK*mJ/gy), the decomposition choice
// CTF's optimizer makes for skewed matrices.
func summaRect(mI, mK, mJ, procs int) *Spec {
	gx, gy := rectGrid(mI, mK, mJ, procs)
	m := algorithms.MatmulConfig{ProcsPerNode: RanksPerNode}.MachineFor(gx, gy)
	return mpiSpec("CTF", m, request.Request{
		Stmt:     algorithms.MatmulStmt,
		Shapes:   map[string][]int{"A": {mI, mJ}, "B": {mI, mK}, "C": {mK, mJ}},
		Formats:  map[string]string{"A": "xy->xy", "B": "xy->xy", "C": "xy->xy"},
		Schedule: algorithms.SummaSchedule(gx, gy, (mK+gx-1)/gx),
	})
}

// rectGrid picks the divisor pair gx*gy = procs minimizing the SUMMA panel
// traffic per rank.
func rectGrid(mI, mK, mJ, procs int) (int, int) {
	bestGx, bestGy := cosma.Factor2(procs)
	bestCost := panelCost(mI, mK, mJ, bestGx, bestGy)
	for gx := 1; gx <= procs; gx++ {
		if procs%gx != 0 {
			continue
		}
		gy := procs / gx
		if c := panelCost(mI, mK, mJ, gx, gy); c < bestCost {
			bestCost, bestGx, bestGy = c, gx, gy
		}
	}
	return bestGx, bestGy
}

func panelCost(mI, mK, mJ, gx, gy int) float64 {
	return float64(mI)*float64(mK)/float64(gx) + float64(mK)*float64(mJ)/float64(gy)
}

// redistSeconds estimates one redistribution pass of the given tensor bytes
// across the machine: every node pushes its share through its NIC.
func redistSeconds(totalBytes int64, nodes int, p sim.Params) float64 {
	if nodes <= 1 {
		return 0 // single node: reshapes are local pointer shuffles
	}
	perNode := float64(totalBytes) / float64(nodes)
	return perNode/p.InterBW + p.InterLatency
}

// reshapeSeconds estimates a local reshape/elementwise pass over the given
// bytes on every node (read + write through memory).
func reshapeSeconds(totalBytes int64, nodes int, p sim.Params) float64 {
	perRank := float64(totalBytes) / float64(nodes) / RanksPerNode
	return 2 * perRank / p.MemBandwidth
}

// CTFTTV casts A(i,j) = B(i,j,k)*c(k) to the matrix-vector product
// A[IJ] = B[IJ,K] * c[K,1], paying a redistribution of B into the matrix
// layout. The mostly-empty rank grid along the unit output dimension is
// what makes CTF's TTV collapse beyond one node (§7.2.2).
func CTFTTV(cfg algorithms.HigherConfig, nodes int) (*Spec, error) {
	s := summaRect(cfg.I*cfg.J, cfg.K, 1, nodes*RanksPerNode)
	p := sim.LassenCPURanks(RanksPerNode)
	bBytes := int64(cfg.I) * int64(cfg.J) * int64(cfg.K) * 8
	s.ExtraSeconds = redistSeconds(bBytes, nodes, p) + reshapeSeconds(bBytes, nodes, p)
	s.ExtraInterBytes = redistBytes(bBytes, nodes)
	return s, nil
}

// CTFInnerprod: CTF implements inner products as flat reductions (it weak
// scales well, §7.2.2); the model is the element-wise schedule under CTF's
// rank decomposition without overlap.
func CTFInnerprod(cfg algorithms.HigherConfig, nodes int) (*Spec, error) {
	cfg.Procs = nodes * RanksPerNode
	cfg.ProcsPerNode = RanksPerNode
	m, req, err := algorithms.InnerprodRequest(cfg)
	if err != nil {
		return nil, err
	}
	return mpiSpec("CTF", m, req), nil
}

// CTFTTM casts A(i,j,l) = B(i,j,k)*C(k,l) to A[IJ,L] = B[IJ,K] * C[K,L],
// redistributing B in and A out of the matrix layout.
func CTFTTM(cfg algorithms.HigherConfig, nodes int) (*Spec, error) {
	s := summaRect(cfg.I*cfg.J, cfg.K, cfg.L, nodes*RanksPerNode)
	p := sim.LassenCPURanks(RanksPerNode)
	bBytes := int64(cfg.I) * int64(cfg.J) * int64(cfg.K) * 8
	aBytes := int64(cfg.I) * int64(cfg.J) * int64(cfg.L) * 8
	s.ExtraSeconds = redistSeconds(bBytes, nodes, p) + redistSeconds(aBytes, nodes, p) +
		reshapeSeconds(bBytes+aBytes, nodes, p)
	s.ExtraInterBytes = redistBytes(bBytes, nodes) + redistBytes(aBytes, nodes)
	return s, nil
}

// CTFMTTKRP models CTF's MTTKRP: the contraction is cast to local matrix
// multiplications over a well-chosen decomposition (so it weak-scales
// flatly, §7.2.2) but requires materializing Khatri-Rao blocks and an extra
// element-wise reduction pass, which costs memory bandwidth on every node
// and keeps single-node performance below DISTAL's fused kernel.
func CTFMTTKRP(cfg algorithms.HigherConfig, nodes int) (*Spec, error) {
	cfg.Procs = nodes * RanksPerNode
	cfg.ProcsPerNode = RanksPerNode
	m, req, err := algorithms.MTTKRPRequest(cfg)
	if err != nil {
		return nil, err
	}
	s := mpiSpec("CTF", m, req)
	bBytes := int64(cfg.I) * int64(cfg.J) * int64(cfg.K) * 8
	// The cast-to-matmul pipeline touches the 3-tensor three extra times:
	// forming local Khatri-Rao blocks, the intermediate product, and the
	// element-wise reduction into the output.
	s.ExtraSeconds = 3 * reshapeSeconds(bBytes, nodes, sim.LassenCPURanks(RanksPerNode))
	return s, nil
}

func redistBytes(total int64, nodes int) int64 {
	if nodes <= 1 {
		return 0
	}
	return total
}
