package core

import (
	"fmt"
	"sync"

	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/schedule"
)

// kernelScratch is the per-worker scratch of one compiled-kernel task
// invocation: value buffers, registers, row temporaries and bound access
// surfaces. Instances are pooled on the plan (compiler.kpool), so batch and
// wire serving reuse a handful of scratches across every task of every
// execution instead of churning the garbage collector with five allocations
// per task. A scratch is owned by exactly one task invocation at a time; the
// pool makes tasks of a shared cached plan safe to run concurrently (each
// worker gets its own).
//
// Everything a task writes while it runs lives in two slabs the scratch
// owns, each padded by a cache line at both ends: two workers' scratches
// never share a line, whatever the allocator placed next to them. (The
// per-point walk writes regs, idx and vals for every element; when one P
// allocated two scratches back to back, those writes used to ping-pong a
// shared line between the workers.)
type kernelScratch struct {
	vals     []int
	origVals []int
	idx      []int
	regs     []float64
	rows     []float64 // row temporaries of the row program: rowLen per op
	rowLen   int
	vecs     []rowVec
	loads    []boundAccess
	store    boundAccess
	low      blockLowering
}

// cacheLineWords is one cache line in 8-byte words.
const cacheLineWords = 8

func newKernelScratch(nv, nOrig, nOps, nAcc, nLeaf, rowLen int) *kernelScratch {
	ints := make([]int, nv+nOrig+nLeaf+2*cacheLineWords)[cacheLineWords:]
	floats := make([]float64, nOps+nOps*rowLen+2*cacheLineWords)[cacheLineWords:]
	return &kernelScratch{
		vals:     ints[:nv:nv],
		origVals: ints[nv : nv+nOrig : nv+nOrig],
		idx:      ints[nv+nOrig : nv+nOrig+nLeaf : nv+nOrig+nLeaf],
		regs:     floats[:nOps:nOps],
		rows:     floats[nOps : nOps+nOps*rowLen : nOps+nOps*rowLen],
		rowLen:   rowLen,
		vecs:     make([]rowVec, nOps),
		loads:    make([]boundAccess, nAcc),
	}
}

// release drops the tensor references bound during the task (so a pooled
// scratch never keeps an execution's data alive) and returns the scratch.
func (ks *kernelScratch) release(pool *sync.Pool) {
	for i := range ks.loads {
		ks.loads[i] = boundAccess{}
	}
	for i := range ks.vecs {
		ks.vecs[i] = rowVec{}
	}
	ks.store = boundAccess{}
	ks.low = blockLowering{}
	pool.Put(ks)
}

// realKernel builds the Real-mode leaf body for one launch: a fused einsum
// loop nest over the leaf variables that reconstructs original index values
// from the schedule's derivations, skips out-of-extent points (ragged
// blocks), and combines into the LHS through the task's write requirement.
//
// The default body executes the plan's compiled kernelProg (kernelprog.go)
// with raw storage surfaces resolved once per task. When the plan's block
// plan exists — every original variable's reconstruction is affine in the
// innermost leaf variables (see schedule.ValueProgram.CompileBlock) — the
// body is blocked: the odometer and ValueProgram run once per 2-D block of
// the two innermost leaf loops, every access offset advances by a constant
// element stride per unit of either, and the block's in-space prefix box
// runs as pure float traffic (blockkernel.go). A block whose ragged tail is
// not a box, a leaf whose innermost reconstruction is not affine, and a
// leaf with no loops all take the per-point walk, so results are
// bit-identical to the tree-walking fallback (Input.TreeKernel), which
// remains the reference the compiled program is asserted against. Scratch
// is pooled per worker (kernelScratch), so a task allocates nothing.
func (c *compiler) realKernel(seq map[string]int) func(ctx *legion.Ctx) {
	if c.in.TreeKernel {
		return c.treeKernel(seq)
	}
	kp := c.kprog
	ev := c.ev
	pool := c.kpool

	type binding struct{ id, val int }
	var seqBind []binding
	for _, v := range c.seqVars {
		seqBind = append(seqBind, binding{ev.VarID(v), seq[v]})
	}
	distIDs := c.distIDs
	leafIDs, leafExt := c.leafIDs, c.leafExt
	// The odometer walks the leaf variables outside the block; the block's
	// own variables stay bound to 0, its origin, except while a block is
	// walked per point. A height-1 block has no outer variable (uID < 0) and
	// a plan without a block plan has neither: its "block" is one point.
	nOuter := len(leafIDs) - kp.blockVars
	uID, vID, uExt, vExt := -1, -1, 1, 1
	if kp.blockVars >= 1 {
		vID, vExt = leafIDs[len(leafIDs)-1], leafExt[len(leafIDs)-1]
	}
	if kp.blockVars == 2 {
		uID, uExt = leafIDs[nOuter], leafExt[nOuter]
	}

	return func(ctx *legion.Ctx) {
		ks := pool.Get().(*kernelScratch)
		defer ks.release(pool)
		vals, origVals, regs, loads, store := ks.vals, ks.origVals, ks.regs, ks.loads, &ks.store
		for i, id := range distIDs {
			vals[id] = ctx.Point[i]
		}
		for _, b := range seqBind {
			vals[b.id] = b.val
		}
		// Every in-space point touches every access, so a task missing a
		// requirement (its rect was empty) has no in-space point at all.
		if !ctx.Holds(kp.store.tensor) {
			return
		}
		for i := range kp.accesses {
			if !ctx.Holds(kp.accesses[i].tensor) {
				return
			}
			loads[i] = kp.accesses[i].bindRead(ctx)
		}
		*store = kp.store.bindWrite(ctx)

		for _, ext := range leafExt {
			if ext <= 0 {
				return
			}
		}
		for _, id := range leafIDs {
			vals[id] = 0
		}
		if kp.bp != nil {
			ks.low = kp.bindBlock(loads, store)
		}
		idx := ks.idx[:nOuter]
		for i := range idx {
			idx[i] = 0
		}
		for {
			nu, nv, ok := 0, 0, false
			if kp.bp != nil {
				nu, nv, ok = kp.vp.BlockRun(kp.bp, vals, origVals)
			}
			switch {
			case !ok:
				// No block plan, or a ragged tail that is not a box: judge
				// and run each point on its own, in loop order (innermost
				// last, matching the tree kernel's row-major walk).
				for u := 0; u < uExt; u++ {
					if uID >= 0 {
						vals[uID] = u
					}
					for v := 0; v < vExt; v++ {
						if vID >= 0 {
							vals[vID] = v
						}
						if kp.vp.Run(vals, origVals) {
							kp.run(loads, store, regs, origVals)
						}
					}
				}
				if uID >= 0 {
					vals[uID] = 0
				}
				if vID >= 0 {
					vals[vID] = 0
				}
			case nu > 0 && nv > 0:
				for i := range loads {
					loads[i].off = loads[i].offset(origVals)
				}
				store.off = store.offset(origVals)
				kp.runBlock(ks, loads, store, nu, nv)
			}
			d := nOuter - 1
			for d >= 0 {
				idx[d]++
				if idx[d] < leafExt[d] {
					vals[leafIDs[d]] = idx[d]
					break
				}
				idx[d] = 0
				vals[leafIDs[d]] = 0
				d--
			}
			if d < 0 {
				return
			}
		}
	}
}

// compiledExpr is the statement's RHS lowered to a pointer tree whose
// accesses carry a dense index — the leaf loop evaluates it without any map
// lookups. Superseded by kernelProg's flat register program on the default
// path; kept as the fallback and reference implementation.
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
		var walk func(d int)
		walk = func(d int) {
			if d < len(leafIDs) {
				for x := 0; x < leafExt[d]; x++ {
					vals[leafIDs[d]] = x
					walk(d + 1)
				}
				return
			}
			if !ev.ValueInto(fixed, vals, scratch, origVals) {
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
