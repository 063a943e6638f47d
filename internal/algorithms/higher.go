package algorithms

import (
	"fmt"

	"distal/internal/core"
	"distal/internal/cosma"
	"distal/internal/machine"
	"distal/internal/request"
)

// HigherConfig describes one higher-order tensor kernel instance (§7.2).
type HigherConfig struct {
	// I, J, K, L are the index extents used by the kernel (L is ignored by
	// TTV and Innerprod).
	I, J, K, L int
	// Procs, ProcsPerNode, GPU as in MatmulConfig.
	Procs        int
	ProcsPerNode int
	GPU          bool
}

func (c *HigherConfig) machineFor(dims ...int) *machine.Machine {
	return MatmulConfig{ProcsPerNode: c.ProcsPerNode, GPU: c.GPU}.MachineFor(dims...)
}

// TTV builds A(i,j) = B(i,j,k) * c(k); see TTVRequest.
func TTV(cfg HigherConfig) (core.Input, error) { return build(TTVRequest(cfg)) }

// TTVRequest writes TTV: the 3-tensor is tiled over a 2D grid along i and
// j, the vector is replicated, and the computation is fully element-wise
// with no communication (the schedule the paper uses instead of CTF's
// cast-to-matmul strategy).
func TTVRequest(cfg HigherConfig) (*machine.Machine, request.Request, error) {
	if err := cfg.check(3); err != nil {
		return nil, request.Request{}, err
	}
	gx, gy := cosma.Factor2(cfg.Procs)
	return cfg.machineFor(gx, gy), request.Request{
		Stmt:     "A(i,j) = B(i,j,k) * c(k)",
		Shapes:   map[string][]int{"A": {cfg.I, cfg.J}, "B": {cfg.I, cfg.J, cfg.K}, "c": {cfg.K}},
		Formats:  map[string]string{"A": "xy->xy", "B": "xyz->xy", "c": "x->**"},
		Schedule: distributeOnto("ij", gx, gy) + " communicate(jo,A,B,c)",
	}, nil
}

// Innerprod builds a = B(i,j,k) * C(i,j,k); see InnerprodRequest.
func Innerprod(cfg HigherConfig) (core.Input, error) { return build(InnerprodRequest(cfg)) }

// InnerprodRequest writes the inner product: node-local reductions followed
// by a global reduction tree into the scalar's owner.
func InnerprodRequest(cfg HigherConfig) (*machine.Machine, request.Request, error) {
	if err := cfg.check(3); err != nil {
		return nil, request.Request{}, err
	}
	gx, gy := cosma.Factor2(cfg.Procs)
	return cfg.machineFor(gx, gy), request.Request{
		Stmt:     "a = B(i,j,k) * C(i,j,k)",
		Shapes:   map[string][]int{"a": {1}, "B": {cfg.I, cfg.J, cfg.K}, "C": {cfg.I, cfg.J, cfg.K}},
		Formats:  map[string]string{"a": "x->00", "B": "xyz->xy", "C": "xyz->xy"},
		Schedule: distributeOnto("ij", gx, gy) + " communicate(jo,B,C)",
	}, nil
}

// TTM builds A(i,j,l) = B(i,j,k) * C(k,l); see TTMRequest.
func TTM(cfg HigherConfig) (core.Input, error) { return build(TTMRequest(cfg)) }

// TTMRequest writes TTM: the i loop is distributed so the kernel becomes
// independent local matrix multiplications with the small factor matrix
// replicated — no inter-node communication (§7.2.2).
func TTMRequest(cfg HigherConfig) (*machine.Machine, request.Request, error) {
	if err := cfg.check(4); err != nil {
		return nil, request.Request{}, err
	}
	return cfg.machineFor(cfg.Procs), request.Request{
		Stmt:     "A(i,j,l) = B(i,j,k) * C(k,l)",
		Shapes:   map[string][]int{"A": {cfg.I, cfg.J, cfg.L}, "B": {cfg.I, cfg.J, cfg.K}, "C": {cfg.K, cfg.L}},
		Formats:  map[string]string{"A": "xyz->x", "B": "xyz->x", "C": "xy->*"},
		Schedule: distributeOnto("i", cfg.Procs) + " communicate(io,A,B,C)",
	}, nil
}

// MTTKRP builds A(i,l) = B(i,j,k) * C(j,l) * D(k,l); see MTTKRPRequest.
func MTTKRP(cfg HigherConfig) (core.Input, error) { return build(MTTKRPRequest(cfg)) }

// MTTKRPRequest writes MTTKRP following Ballard et al.: the 3-tensor stays
// in place on a 3D grid, the factor matrices are partitioned along their
// contracted mode and replicated along the other grid dimensions, and
// partial results reduce into the output's owners. The free output mode l
// is not distributed but sits below the distributed prefix.
func MTTKRPRequest(cfg HigherConfig) (*machine.Machine, request.Request, error) {
	if err := cfg.check(4); err != nil {
		return nil, request.Request{}, err
	}
	g1, g2, g3 := cosma.Factor3(cfg.Procs)
	return cfg.machineFor(g1, g2, g3), request.Request{
		Stmt: "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
		Shapes: map[string][]int{"A": {cfg.I, cfg.L}, "B": {cfg.I, cfg.J, cfg.K},
			"C": {cfg.J, cfg.L}, "D": {cfg.K, cfg.L}},
		Formats: map[string]string{"A": "ab->a00", "B": "abc->abc", "C": "ab->*a*", "D": "ab->**a"},
		Schedule: fmt.Sprintf("divide(i,io,ii,%d) divide(j,jo,ji,%d) divide(k,ko,ki,%d) "+
			"reorder(io,jo,ko,ii,ji,ki,l) distribute(io,jo,ko) communicate(ko,A,B,C,D)", g1, g2, g3),
	}, nil
}

func (c *HigherConfig) check(rank int) error {
	if c.I <= 0 || c.J <= 0 || c.K <= 0 || c.Procs <= 0 {
		return fmt.Errorf("algorithms: bad higher-order config %+v", *c)
	}
	if rank == 4 && c.L <= 0 {
		return fmt.Errorf("algorithms: kernel needs L > 0, got %+v", *c)
	}
	return nil
}
