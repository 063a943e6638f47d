package core

import "context"

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
