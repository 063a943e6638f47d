package core

import (
	"context"

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
