// Package program parses compile requests into dependency DAGs. A request
// names either one statement or a list of tensor index notation statements
// whose left-hand sides name intermediates that later statements consume —
// e.g. "D(i,j) = A(i,k) * B(k,j)" feeding "E(i,j) = D(i,k) * C(k,j)". Both
// forms parse to a Program; a single statement is a one-stage program. The
// list parser classifies every tensor as a leaf input (never assigned; its
// shape must be declared) or an assigned tensor (its shape is inferred from
// the producing statement's right-hand side), orders the statements
// topologically, and rejects programs that cannot execute: duplicate
// assignments, dependency cycles, shape conflicts, and declarations for
// tensors the program computes itself.
//
// The package is shared by both ends of the wire: the distal session layer
// compiles a parsed program into a plan, and the wire client derives the
// frame order from the same ParseRequest, so client and server always agree
// on which tensors ride as frames and in what order.
package program

import (
	"fmt"
	"slices"

	"distal/internal/ir"
	"distal/internal/tensor"
)

// Statement is one statement of a program: the index notation text plus its
// own format annotations and schedule. Formats may only name tensors of this
// statement; an empty schedule means the session auto-schedules the stage.
// The json tags are the "stmts" entries of a /v1/run request (internal/wire's
// StmtSpec).
type Statement struct {
	Stmt     string            `json:"stmt"`
	Formats  map[string]string `json:"formats,omitempty"`
	Schedule string            `json:"schedule,omitempty"`
}

// Stage is one parsed statement in executable position.
type Stage struct {
	// Index is the statement's position in the source list.
	Index int
	// Assign is the parsed statement.
	Assign *ir.Assignment
	// Src is the source statement (formats, schedule ride along).
	Src Statement
}

// Program is a parsed multi-statement program: statements in topological
// order with every tensor's shape resolved.
type Program struct {
	// Stages holds the statements in a stable topological order: a stage
	// appears after every stage it depends on, ties broken by source
	// position.
	Stages []*Stage
	// Shapes maps every tensor of the program to its shape — leaf inputs
	// as declared, assigned tensors as inferred from their producer. A
	// single statement's is the declared map itself.
	Shapes map[string][]int

	inputs []string // what a caller binds, in frame order
	output string   // the last source statement's LHS
}

// ParseRequest parses a request in either of its two forms. The statement
// form sets one and leaves stmts empty: it declares every tensor's shape,
// its output's included, and a caller binds every tensor in statement
// order. The list form sets stmts and leaves one zero, and parses as Parse
// does: a caller binds the leaf inputs in first-use order.
func ParseRequest(one Statement, stmts []Statement, shapes map[string][]int) (*Program, error) {
	if len(stmts) == 0 {
		return parseStatement(one, shapes)
	}
	if one.Stmt != "" || one.Schedule != "" || len(one.Formats) > 0 {
		return nil, fmt.Errorf("program: a request with stmts puts its statements, formats and schedules inside stmts; the top-level stmt, formats and schedule must be empty")
	}
	return Parse(stmts, shapes)
}

// Parse parses and validates a statement list against the declared leaf
// input shapes. Shape inference runs in dependency order, so an
// intermediate's shape is available to every consumer; the returned
// program's Shapes covers leaf inputs and assigned tensors alike.
func Parse(stmts []Statement, shapes map[string][]int) (*Program, error) {
	if len(stmts) == 0 {
		return nil, fmt.Errorf("program: empty statement list")
	}
	parsed := make([]*ir.Assignment, len(stmts))
	producer := map[string]int{}
	for i, st := range stmts {
		a, err := ir.Parse(st.Stmt)
		if err != nil {
			return nil, fmt.Errorf("program: statement %d: %w", i, err)
		}
		parsed[i] = a
		lhs := a.LHS.Tensor
		if len(a.LHS.Indices) == 0 {
			return nil, fmt.Errorf("program: statement %d assigns scalar %s; scalar outputs are not supported in multi-statement programs", i, lhs)
		}
		if prev, dup := producer[lhs]; dup {
			return nil, fmt.Errorf("program: tensor %s is assigned by statements %d and %d; every tensor may be assigned once", lhs, prev, i)
		}
		producer[lhs] = i
	}
	// A declared shape may only describe a leaf input: assigned tensors'
	// shapes are inferred from their producer, so a declaration for one is
	// either redundant or contradictory — and a leaf input colliding with
	// an intermediate's name is exactly that case seen from the other side.
	named := map[string]bool{}
	for _, a := range parsed {
		for _, name := range a.TensorNames() {
			named[name] = true
		}
	}
	for name := range shapes {
		if idx, assigned := producer[name]; assigned {
			return nil, fmt.Errorf("program: Shapes declares %s, which statement %d computes; intermediate shapes are inferred from their producer", name, idx)
		}
		if !named[name] {
			return nil, fmt.Errorf("program: Shapes declares %s, which no statement mentions", name)
		}
	}
	// Per-statement format annotations may only name that statement's
	// tensors (same contract as single-statement requests).
	for i, st := range stmts {
		stmtNames := map[string]bool{}
		for _, name := range parsed[i].TensorNames() {
			stmtNames[name] = true
		}
		for name := range st.Formats {
			if !stmtNames[name] {
				return nil, fmt.Errorf("program: statement %d Formats names %s, which is not a tensor of %q", i, name, st.Stmt)
			}
		}
	}
	// Dependency edges: statement i depends on statement j when i reads a
	// tensor j assigns. Reading your own output in the same statement has
	// no producer to run first and is rejected (ir's += reads the prior
	// contents of a *leaf* LHS, which stays legal). An edge repeats once per
	// access; the sort below counts it as often as it removes it.
	deps := make([][]int, len(stmts))
	for i, a := range parsed {
		for _, acc := range a.RHS.Accesses(nil) {
			j, assigned := producer[acc.Tensor]
			if !assigned {
				continue
			}
			if j == i {
				return nil, fmt.Errorf("program: statement %d reads its own output %s", i, acc.Tensor)
			}
			deps[i] = append(deps[i], j)
		}
	}
	// Stable Kahn topological sort: among ready statements the smallest
	// source index runs first, so equivalent programs order independent
	// stages deterministically.
	indeg := make([]int, len(stmts))
	dependents := make([][]int, len(stmts))
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, j := range ds {
			dependents[j] = append(dependents[j], i)
		}
	}
	var ready, order []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		i := slices.Min(ready)
		ready = slices.DeleteFunc(ready, func(r int) bool { return r == i })
		order = append(order, i)
		for _, j := range dependents[i] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(order) != len(stmts) {
		return nil, fmt.Errorf("program: statements form a dependency cycle")
	}

	// Shape inference in dependency order: every RHS tensor is either a
	// declared leaf or an already-inferred intermediate; the LHS shape
	// follows from the RHS extents exactly as ir.Evaluate infers it.
	known := make(map[string][]int, len(shapes))
	for name, shape := range shapes {
		known[name] = shape
	}
	p := &Program{
		Shapes: known,
		output: parsed[len(parsed)-1].LHS.Tensor,
	}
	for _, i := range order {
		a := parsed[i]
		outShape, err := inferLHS(a, known)
		if err != nil {
			return nil, fmt.Errorf("program: statement %d: %w", i, err)
		}
		known[a.LHS.Tensor] = outShape
		if err := a.Validate(known); err != nil {
			return nil, fmt.Errorf("program: statement %d: %w", i, err)
		}
		p.Stages = append(p.Stages, &Stage{Index: i, Assign: a, Src: stmts[i]})
	}
	// Leaf inputs in first-use order over the *source* list: the order is a
	// wire contract (frames ride in it), so it must not depend on the
	// topological tie-breaking.
	seen := map[string]bool{}
	for _, a := range parsed {
		for _, name := range a.TensorNames() {
			if _, assigned := producer[name]; assigned || seen[name] {
				continue
			}
			seen[name] = true
			p.inputs = append(p.inputs, name)
		}
	}
	return p, nil
}

// parseStatement parses the statement form: every tensor, its output
// included, needs a shape of positive extents, and the shapes must agree on
// every index variable's extent. Shapes and Formats keys that name no tensor
// of the statement are rejected: in a pure-data wire format a typo'd name
// would otherwise silently fall back to defaults.
func parseStatement(st Statement, shapes map[string][]int) (*Program, error) {
	a, err := ir.Parse(st.Stmt)
	if err != nil {
		return nil, err
	}
	names := a.TensorNames()
	for key := range shapes {
		if !slices.Contains(names, key) {
			return nil, fmt.Errorf("request Shapes names %s, which is not a tensor of %q", key, st.Stmt)
		}
	}
	for key := range st.Formats {
		if !slices.Contains(names, key) {
			return nil, fmt.Errorf("request Formats names %s, which is not a tensor of %q", key, st.Stmt)
		}
	}
	for _, name := range names {
		shape, ok := shapes[name]
		if !ok {
			return nil, fmt.Errorf("request has no shape for tensor %s", name)
		}
		for _, extent := range shape {
			if extent <= 0 {
				return nil, fmt.Errorf("request shape %v of tensor %s has a non-positive extent", shape, name)
			}
		}
	}
	if err := a.Validate(shapes); err != nil {
		return nil, err
	}
	return &Program{
		Stages: []*Stage{{Assign: a, Src: st}},
		Shapes: shapes,
		inputs: names,
		output: a.LHS.Tensor,
	}, nil
}

// inferLHS computes the LHS shape of a statement from the (known) shapes of
// its RHS tensors, mirroring ir.Evaluate's extent inference.
func inferLHS(a *ir.Assignment, shapes map[string][]int) ([]int, error) {
	extents := map[string]int{}
	for _, acc := range a.RHS.Accesses(nil) {
		shape, ok := shapes[acc.Tensor]
		if !ok {
			return nil, fmt.Errorf("no shape for tensor %s (declare leaf-input shapes in Shapes)", acc.Tensor)
		}
		if len(shape) != len(acc.Indices) {
			if len(acc.Indices) == 0 && len(shape) == 1 && shape[0] == 1 {
				continue // scalar access over a rank-1 unit tensor
			}
			return nil, fmt.Errorf("access %s has %d indices but tensor has rank %d", acc, len(acc.Indices), len(shape))
		}
		for d, v := range acc.Indices {
			if prev, ok := extents[v.Name]; ok && prev != shape[d] {
				return nil, fmt.Errorf("variable %s indexes extents %d and %d", v.Name, prev, shape[d])
			}
			extents[v.Name] = shape[d]
		}
	}
	outShape := make([]int, len(a.LHS.Indices))
	for d, v := range a.LHS.Indices {
		ext, ok := extents[v.Name]
		if !ok {
			return nil, fmt.Errorf("LHS variable %s not bound by any RHS access", v.Name)
		}
		outShape[d] = ext
	}
	return outShape, nil
}

// Inputs returns the tensors a caller binds, in the canonical wire frame
// order: a single statement's every tensor in statement order (LHS first,
// then RHS tensors left to right, duplicates dropped), a list's leaf inputs
// — tensors no statement assigns — in first-use order over the source
// statement list. The caller must not mutate the returned slice.
func (p *Program) Inputs() []string { return p.inputs }

// Output returns the last source statement's LHS: the tensor a run of the
// program answers with.
func (p *Program) Output() string { return p.output }

// Evaluate runs the program sequentially with the reference interpreter,
// feeding each statement's output to its consumers, and returns every
// assigned tensor by name. It is the semantics a distributed plan-DAG
// execution is validated against.
func Evaluate(p *Program, inputs map[string]*tensor.Dense) (map[string]*tensor.Dense, error) {
	vals := make(map[string]*tensor.Dense, len(inputs)+len(p.Stages))
	for _, name := range p.inputs {
		t, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("program: evaluate: missing input tensor %s", name)
		}
		vals[name] = t
	}
	outs := make(map[string]*tensor.Dense, len(p.Stages))
	for _, st := range p.Stages {
		out, err := ir.Evaluate(st.Assign, vals)
		if err != nil {
			return nil, fmt.Errorf("program: evaluate: statement %d: %w", st.Index, err)
		}
		vals[st.Assign.LHS.Tensor] = out
		outs[st.Assign.LHS.Tensor] = out
	}
	return outs, nil
}
