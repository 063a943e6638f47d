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

// CompileCountingFusion is Compile with every launch's body wrapped: each
// task first binds its accesses from its own surfaces, as the compiled body
// binds them (in-place instances, task-local accumulators and batch views
// alike), and counts itself in tasks, and in fused when its tile lowering
// runs planes four at a time (leaf.Tile4); then the body runs.
func CompileCountingFusion(in Input, fused, tasks *atomic.Int64) (*legion.Program, error) {
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
				tasks.Add(1)
				if kp.bindBlock(loads, &store).planes4 {
					fused.Add(1)
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
