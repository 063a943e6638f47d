package core

import (
	"fmt"

	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/schedule"
)

// This file is the tests' Real-mode oracle: a tree-walking leaf kernel that
// evaluates the statement's RHS by recursive descent through Ctx's
// coordinate-checked accessors. CompileTree (export_test.go) puts it in
// place of every compiled kernel program, and the kernel tests require the
// two to agree bit for bit.

// compiledExpr is the statement's RHS lowered to a pointer tree whose
// accesses carry a dense index — the leaf loop evaluates it without any map
// lookups.
type compiledExpr struct {
	op     exprOp
	tensor string  // exAccess
	acc    int     // exAccess: index into the access-plan tables
	val    float64 // exLit
	l, r   *compiledExpr
}

type exprOp uint8

const (
	exAccess exprOp = iota
	exLit
	exAdd
	exMul
)

// treeKernel is the tree-walking Real-mode leaf body: it evaluates the RHS
// by recursive descent over compiledExpr and reads through Ctx's
// coordinate-checked accessors. It computes exactly what the compiled
// kernelProg computes, in the same floating-point operation order.
func (c *compiler) treeKernel(seq map[string]int) func(ctx *legion.Ctx) {
	stmt := c.in.Stmt
	lhs := stmt.LHS
	reduces := len(stmt.ReductionVars()) > 0 || stmt.Increment
	ev := c.ev

	// Position of each original variable in the evaluator's value output.
	origPos := map[string]int{}
	for i, id := range ev.OrigIDs() {
		origPos[ev.VarName(int(id))] = i
	}
	// Access plans, one per access (LHS first): the value position indexing
	// each tensor dimension, resolved once here rather than per leaf point.
	var accPlans [][]int
	addAccess := func(a *ir.Access) int {
		dims := make([]int, len(a.Indices))
		for d, v := range a.Indices {
			dims[d] = origPos[v.Name]
		}
		accPlans = append(accPlans, dims)
		return len(accPlans) - 1
	}
	addAccess(lhs)
	var compile func(e ir.Expr) *compiledExpr
	compile = func(e ir.Expr) *compiledExpr {
		switch e := e.(type) {
		case *ir.Access:
			return &compiledExpr{op: exAccess, tensor: e.Tensor, acc: addAccess(e)}
		case *ir.Literal:
			return &compiledExpr{op: exLit, val: e.Value}
		case *ir.Add:
			return &compiledExpr{op: exAdd, l: compile(e.L), r: compile(e.R)}
		case *ir.Mul:
			return &compiledExpr{op: exMul, l: compile(e.L), r: compile(e.R)}
		default:
			panic(fmt.Sprintf("core: unknown expression %T", e))
		}
	}
	rhs := compile(stmt.RHS)

	type binding struct{ id, val int }
	var seqBind []binding
	for _, v := range c.seqVars {
		seqBind = append(seqBind, binding{ev.VarID(v), seq[v]})
	}
	// Each original variable's extent, in OrigIDs order, for the in-space
	// check.
	origExt := make([]int, len(ev.OrigIDs()))
	for i, id := range ev.OrigIDs() {
		origExt[i] = c.extents[ev.VarName(int(id))]
	}
	distIDs := append([]int(nil), c.distIDs...)
	leafIDs := make([]int, len(c.leaf))
	leafExt := make([]int, len(c.leaf))
	for i, name := range c.leaf {
		leafIDs[i] = ev.VarID(name)
		leafExt[i] = c.extents[name]
	}

	return func(ctx *legion.Ctx) {
		nv := ev.NumVars()
		fixed := make([]bool, nv)
		vals := make([]int, nv)
		scratch := make([]schedule.Interval, nv)
		origVals := make([]int, len(ev.OrigIDs()))
		for i, id := range distIDs {
			fixed[id] = true
			vals[id] = ctx.Point[i]
		}
		for _, b := range seqBind {
			fixed[b.id] = true
			vals[b.id] = b.val
		}
		for _, id := range leafIDs {
			fixed[id] = true
		}
		// Per-access point buffers, indexed like accPlans.
		accBufs := make([][]int, len(accPlans))
		for i, dims := range accPlans {
			if len(dims) == 0 {
				accBufs[i] = scalarPoint // scalars are rank-1 unit regions
				continue
			}
			accBufs[i] = make([]int, len(dims))
		}
		pointFor := func(acc int) []int {
			dims := accPlans[acc]
			p := accBufs[acc]
			for d, pos := range dims {
				p[d] = origVals[pos]
			}
			return p
		}
		var evalExpr func(e *compiledExpr) float64
		evalExpr = func(e *compiledExpr) float64 {
			switch e.op {
			case exAccess:
				return ctx.ReadAt(e.tensor, pointFor(e.acc)...)
			case exLit:
				return e.val
			case exAdd:
				return evalExpr(e.l) + evalExpr(e.r)
			default:
				return evalExpr(e.l) * evalExpr(e.r)
			}
		}
		// inSpace reconstructs the original variables from the full
		// assignment by interval evaluation, independently of the
		// ValueProgram the compiled kernel runs, and reports whether the
		// point lies inside every original extent.
		inSpace := func() bool {
			ev.Eval(fixed, vals, scratch)
			for i, id := range ev.OrigIDs() {
				iv := scratch[id]
				if iv.Hi <= iv.Lo {
					return false
				}
				if !iv.Fixed() {
					panic(fmt.Sprintf("core: variable %s not fixed by a full assignment", ev.VarName(int(id))))
				}
				if iv.Lo < 0 || iv.Lo >= origExt[i] {
					return false
				}
				origVals[i] = iv.Lo
			}
			return true
		}
		var walk func(d int)
		walk = func(d int) {
			if d < len(leafIDs) {
				for x := 0; x < leafExt[d]; x++ {
					vals[leafIDs[d]] = x
					walk(d + 1)
				}
				return
			}
			if !inSpace() {
				return // ragged-boundary point outside the iteration space
			}
			v := evalExpr(rhs)
			p := pointFor(0)
			if reduces {
				ctx.WriteAdd(lhs.Tensor, v, p...)
			} else {
				ctx.WriteSet(lhs.Tensor, v, p...)
			}
		}
		walk(0)
	}
}

var scalarPoint = []int{0}
