package core

import (
	"sync"

	"distal/internal/legion"
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
// plan exists — every original variable's reconstruction is affine in up to
// three innermost leaf variables (see schedule.ValueProgram.CompileBlock) —
// the body is blocked: the odometer walks the leaf variables outside the
// block, the ValueProgram and every access offset run once per block, and
// the block's in-space prefix box runs as pure float traffic a plane at a
// time (blockkernel.go). A block whose ragged tail is not a box is judged
// plane by plane, then per point (walkBlock); a leaf whose innermost
// reconstruction is not affine, and a leaf with no loops, take the per-point
// walk. Results are bit-identical to the tests' tree-walking oracle
// (CompileTree). Scratch is pooled per worker (kernelScratch), so a task
// allocates nothing.
func (c *compiler) realKernel(seq map[string]int) func(ctx *legion.Ctx) {
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
	// own variables stay bound to 0, its origin, except while walkBlock
	// steps through them. A plan without a block plan has none: its "block"
	// is one point.
	nOuter := len(leafIDs) - kp.blockVars

	return func(ctx *legion.Ctx) {
		ks := pool.Get().(*kernelScratch)
		defer ks.release(pool)
		vals, loads, store := ks.vals, ks.loads, &ks.store
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
		clear(idx)
		for {
			kp.walkBlock(ks)
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

// walkBlock runs the block at the current odometer step (every block
// variable 0 in ks.vals). A block BlockRun accepts runs as its prefix box.
// One it rejects — a ragged check coupling two block variables — is judged
// again plane by plane through the plan's plane view, and a plane that view
// rejects too, like any rejected block of a two-variable plan, is walked per
// point; so is every "block" (one point) of a plan without a block plan.
func (kp *kernelProg) walkBlock(ks *kernelScratch) {
	vals, origVals := ks.vals, ks.origVals
	if kp.bp != nil {
		if box, ok := kp.vp.BlockRun(kp.bp, vals, origVals); ok {
			kp.runBlock(ks, box)
			return
		}
	}
	wID := kp.blockIDs[0]
	if wID < 0 {
		kp.walkPoints(ks)
		return
	}
	for w := 0; w < kp.blockExt[0]; w++ {
		vals[wID] = w
		if box, ok := kp.vp.BlockRun(&kp.plane, vals, origVals); ok {
			kp.runBlock(ks, box)
		} else {
			kp.walkPoints(ks)
		}
	}
	vals[wID] = 0
}

// walkPoints judges and runs each point of the current plane on its own, in
// loop order (innermost last, matching the tree kernel's row-major walk), and
// rebinds the plane's variables to 0.
func (kp *kernelProg) walkPoints(ks *kernelScratch) {
	vals, origVals := ks.vals, ks.origVals
	uID, vID := kp.blockIDs[1], kp.blockIDs[2]
	for u := 0; u < kp.blockExt[1]; u++ {
		if uID >= 0 {
			vals[uID] = u
		}
		for v := 0; v < kp.blockExt[2]; v++ {
			if vID >= 0 {
				vals[vID] = v
			}
			if kp.vp.Run(vals, origVals) {
				kp.run(ks.loads, &ks.store, ks.regs, origVals)
			}
		}
	}
	for _, id := range kp.blockIDs[1:] {
		if id >= 0 {
			vals[id] = 0
		}
	}
}
