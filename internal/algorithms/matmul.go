// Package algorithms writes the distributed algorithms of the DISTAL paper
// as requests: one statement, the data distribution of every tensor in
// tensor distribution notation, and a schedule in scheduling-command text,
// on the processor grid the algorithm asks for. It covers the six
// matrix-multiplication algorithms of Figure 9 (Cannon, PUMMA, SUMMA,
// Johnson, Solomonik's 2.5D, and COSMA) and the four higher-order tensor
// kernels of §7.2 (TTV, Innerprod, TTM, MTTKRP). Matmul, TTV, Innerprod, TTM
// and MTTKRP build a request into the compiler's input through
// internal/request, the same builder the distal session uses.
package algorithms

import (
	"fmt"
	"strings"

	"distal/internal/core"
	"distal/internal/cosma"
	"distal/internal/machine"
	"distal/internal/request"
	"distal/internal/tensor"
)

// Alg names a matrix-multiplication algorithm from Figure 9.
type Alg string

const (
	Cannon    Alg = "cannon"
	PUMMA     Alg = "pumma"
	SUMMA     Alg = "summa"
	Johnson   Alg = "johnson"
	Solomonik Alg = "solomonik"
	COSMA     Alg = "cosma"
)

// MatmulAlgs lists the algorithms in the paper's order.
var MatmulAlgs = []Alg{Cannon, PUMMA, SUMMA, Johnson, Solomonik, COSMA}

// MatmulConfig describes one matrix-multiplication instance.
type MatmulConfig struct {
	// N is the square matrix dimension.
	N int
	// Procs is the number of leaf processors.
	Procs int
	// ProcsPerNode groups consecutive processors into nodes (0: one proc
	// per node).
	ProcsPerNode int
	// GPU selects GPU processors and framebuffer memories.
	GPU bool
	// ChunkSize is the SUMMA/PUMMA pipeline chunk (0: one tile).
	ChunkSize int
	// ReplicationC is the 2.5D replication factor (0: chosen automatically).
	ReplicationC int
	// MemWords is the per-processor memory available to the COSMA scheduler
	// (0: unbounded).
	MemWords float64
}

// MachineFor builds the machine for the given grid under this config.
func (c MatmulConfig) MachineFor(dims ...int) *machine.Machine {
	mem, proc := machine.SysMem, machine.CPU
	if c.GPU {
		mem, proc = machine.GPUFBMem, machine.GPU
	}
	m := machine.New(machine.NewGrid(dims...), mem, proc)
	if c.ProcsPerNode > 0 {
		m = m.WithProcsPerNode(c.ProcsPerNode)
	}
	return m
}

// MatmulStmt is the statement every Figure 9 algorithm schedules.
const MatmulStmt = "A(i,j) = B(i,k) * C(k,j)"

// Matmul builds the compilation input for A(i,j) = B(i,k) * C(k,j) under
// the named algorithm.
func Matmul(alg Alg, cfg MatmulConfig) (core.Input, error) { return build(MatmulRequest(alg, cfg)) }

// MatmulRequest writes the named algorithm as a request on its machine
// (Fig. 9). The 2D algorithms share grid and data distribution and differ
// only in schedule. The 3D ones distribute k too: Johnson fixes the inputs
// to faces of the processor cube and reduces A; 2.5D runs a Cannon-style
// rotation over a fraction of k in each of c slices; COSMA takes its grid
// and step count from the COSMA scheduler.
func MatmulRequest(alg Alg, cfg MatmulConfig) (*machine.Machine, request.Request, error) {
	if cfg.N <= 0 || cfg.Procs <= 0 {
		return nil, request.Request{}, fmt.Errorf("algorithms: bad config %+v", cfg)
	}
	var grid []int
	formats := [3]string{"xy->xy0", "xz->x0z", "zy->0yz"} // A, B, C on faces of the cube
	var sched string
	switch alg {
	case Cannon, PUMMA, SUMMA:
		gx, gy := cosma.Factor2(cfg.Procs)
		grid, formats = []int{gx, gy}, [3]string{"xy->xy", "xy->xy", "xy->xy"}
		switch alg {
		case SUMMA:
			chunk := cfg.ChunkSize
			if chunk == 0 {
				chunk = ceilDiv(cfg.N, gx)
			}
			sched = SummaSchedule(gx, gy, chunk)
		case Cannon:
			sched = distributeOnto("ij", gx, gy) + fmt.Sprintf(
				" divide(k,ko,ki,%d) reorder(ko,ii,ji,ki) rotate(ko,io,jo,kos) communicate(jo,A) communicate(kos,B,C)", gx)
		case PUMMA:
			sched = distributeOnto("ij", gx, gy) + fmt.Sprintf(
				" divide(k,ko,ki,%d) reorder(ko,ii,ji,ki) rotate(ko,io,kos) communicate(jo,A) communicate(kos,B,C)", gx)
		}
	case Johnson:
		g1, g2, g3 := cosma.Factor3(cfg.Procs)
		grid = []int{g1, g2, g3}
		sched = distributeOnto("ijk", grid...) + " communicate(ko,A,B,C)"
	case Solomonik:
		c := cfg.ReplicationC
		if c == 0 {
			c = pickReplication(cfg.Procs)
		}
		if cfg.Procs%c != 0 || !IsSquare(cfg.Procs/c) {
			return nil, request.Request{}, fmt.Errorf("algorithms: 2.5D needs p/c to be a perfect square (p=%d c=%d)", cfg.Procs, c)
		}
		g := isqrt(cfg.Procs / c)
		grid, formats = []int{g, g, c}, [3]string{"xy->xy0", "xy->xy0", "xy->xy0"}
		sched = distributeOnto("ijk", grid...) + fmt.Sprintf(
			" divide(ki,kio,kii,%d) reorder(kio,ii,ji,kii) rotate(kio,io,jo,kios) communicate(jo,A) communicate(kios,B,C)", max(g/c, 1))
	case COSMA:
		mem := cfg.MemWords
		if mem == 0 {
			mem = 1e18
		}
		d := cosma.Choose(cfg.N, cfg.N, cfg.N, cfg.Procs, mem)
		grid = []int{d.Gx, d.Gy, d.Gz}
		sched = distributeOnto("ijk", grid...) + fmt.Sprintf(
			" divide(ki,kio,kii,%d) reorder(kio,ii,ji,kii) communicate(ko,A) communicate(kio,B,C)", d.Steps)
	default:
		return nil, request.Request{}, fmt.Errorf("algorithms: unknown algorithm %q", alg)
	}
	return cfg.MachineFor(grid...), matmulRequest(cfg.N, formats, sched), nil
}

// matmulRequest writes MatmulStmt on n x n matrices placed under the
// formats of A, B and C, scheduled by sched.
func matmulRequest(n int, formats [3]string, sched string) request.Request {
	square := []int{n, n}
	return request.Request{
		Stmt:     MatmulStmt,
		Shapes:   map[string][]int{"A": square, "B": square, "C": square},
		Formats:  map[string]string{"A": formats[0], "B": formats[1], "C": formats[2]},
		Schedule: sched,
	}
}

// SummaSchedule writes SUMMA on a gx x gy grid: A's tiles stay in place
// while k streams in chunks of the given size, each chunk's panels of B and
// C broadcast to the tiles that need them. Tensors, when given, rename A, B
// and C, for a product such as E(i,j) = D(i,k) * C(k,j).
func SummaSchedule(gx, gy, chunk int, tensors ...string) string {
	if tensors == nil {
		tensors = []string{"A", "B", "C"}
	}
	return distributeOnto("ij", gx, gy) + fmt.Sprintf(
		" split(k,ko,ki,%d) reorder(ko,ii,ji,ki) communicate(jo,%s) communicate(ko,%s,%s)",
		chunk, tensors[0], tensors[1], tensors[2])
}

// SummaRequest writes SUMMA on n x n tiled matrices over a gx x gy grid
// with the given k chunk, for a grid or chunk other than the ones
// MatmulRequest derives from the processor count.
func SummaRequest(n, gx, gy, chunk int) request.Request {
	return matmulRequest(n, [3]string{"xy->xy", "xy->xy", "xy->xy"}, SummaSchedule(gx, gy, chunk))
}

// distributeOnto writes the compound tile-and-distribute command of §3.3:
// each variable v of vars divides into vo, one piece per grid dimension,
// and vi; the outer loops move outermost and are distributed.
func distributeOnto(vars string, grid ...int) string {
	var b strings.Builder
	var outer, inner []string
	for d, v := range vars {
		fmt.Fprintf(&b, "divide(%c,%co,%ci,%d) ", v, v, v, grid[d])
		outer, inner = append(outer, string(v)+"o"), append(inner, string(v)+"i")
	}
	fmt.Fprintf(&b, "reorder(%s,%s) distribute(%s)", strings.Join(outer, ","), strings.Join(inner, ","), strings.Join(outer, ","))
	return b.String()
}

// build turns an algorithm's request into the compiler's input on its
// machine.
func build(m *machine.Machine, req request.Request, err error) (core.Input, error) {
	if err != nil {
		return core.Input{}, err
	}
	return request.Build(req, m)
}

// RandomData returns fresh data for in's tensors, for a real run to bind
// per execution: a zero output, and each input filled deterministically
// from its own seed (6 plus its position in statement order).
func RandomData(in core.Input) map[string]*tensor.Dense {
	data := map[string]*tensor.Dense{}
	for i, name := range in.Stmt.TensorNames() {
		d := tensor.New(name, in.Tensors[name].Shape...)
		if i > 0 {
			d.FillRandom(int64(6 + i))
		}
		data[name] = d
	}
	return data
}

// pickReplication chooses the largest c <= p^(1/3) with p/c a perfect
// square; if no such c exists it falls back to the smallest feasible c so
// the 2.5D grid is always constructible.
func pickReplication(p int) int {
	best := 0
	for c := 1; c*c*c <= p; c++ {
		if p%c == 0 && IsSquare(p/c) {
			best = c
		}
	}
	if best > 0 {
		return best
	}
	for c := 1; c <= p; c++ {
		if p%c == 0 && IsSquare(p/c) {
			return c
		}
	}
	return 1
}

// IsSquare reports whether n is a perfect square.
func IsSquare(n int) bool {
	r := isqrt(n)
	return r*r == n
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
