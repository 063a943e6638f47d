package core

import (
	"context"
	"sync/atomic"

	"distal/internal/legion"
)

// LeafBlockVars compiles in and returns how many leaf variables its kernel's
// block plan spans (0 to 3).
func LeafBlockVars(in Input) (int, error) {
	c, err := newCompiler(context.Background(), in)
	if err != nil {
		return 0, err
	}
	if _, err := c.lower(); err != nil {
		return 0, err
	}
	return c.kprog.blockVars, nil
}

// LoweringCounts counts tasks by the lowering their blocks take, bound as
// CompileCounting binds them: Fused runs planes four at a time (leaf.Tile4),
// Held holds its store row in registers (leaf.HeldRow) and Axpy runs the
// row loop that reloads it (leaf.Axpy).
type LoweringCounts struct {
	Tasks, Fused, Held, Axpy atomic.Int64
}

// CompileCounting is Compile with every launch's body wrapped: each task
// first binds its accesses from its own surfaces, as the compiled body binds
// them (in-place instances, task-local accumulators and batch views alike),
// and counts itself in n by its lowering; then the body runs.
func CompileCounting(in Input, n *LoweringCounts) (*legion.Program, error) {
	c, err := newCompiler(context.Background(), in)
	if err != nil {
		return nil, err
	}
	prog, err := c.lower()
	if err != nil {
		return nil, err
	}
	kp := c.kprog
	for _, l := range prog.Launches {
		run := l.Run
		l.Run = func(ctx *legion.Ctx) {
			holds := ctx.Holds(kp.store.tensor)
			for i := range kp.accesses {
				holds = holds && ctx.Holds(kp.accesses[i].tensor)
			}
			if kp.bp != nil && holds {
				loads := make([]boundAccess, len(kp.accesses))
				for i := range kp.accesses {
					loads[i] = kp.accesses[i].bindRead(ctx)
				}
				store := kp.store.bindWrite(ctx)
				n.Tasks.Add(1)
				switch low := kp.bindBlock(loads, &store); {
				case low.planes4:
					n.Fused.Add(1)
				case low.kind == lowerHeldRow:
					n.Held.Add(1)
				case low.kind == lowerAxpy:
					n.Axpy.Add(1)
				}
			}
			run(ctx)
		}
	}
	return prog, nil
}

// CompileTree is Compile with every launch's Real-mode body replaced by the
// tree-walking oracle (treekernel_test.go): the same program, region
// requirements and costs, executed by recursive descent instead of the
// compiled kernel program.
func CompileTree(in Input) (*legion.Program, error) {
	c, err := newCompiler(context.Background(), in)
	if err != nil {
		return nil, err
	}
	prog, err := c.lower()
	if err != nil {
		return nil, err
	}
	for i, seq := range c.seqAssignments() {
		prog.Launches[i].Run = c.treeKernel(seq)
	}
	return prog, nil
}
