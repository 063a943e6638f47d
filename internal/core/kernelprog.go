package core

import (
	"fmt"

	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/schedule"
)

// This file lowers the statement's RHS expression tree into a kernelProg: a
// flat, topologically-ordered register program over []float64 slices, the
// Real-mode analogue of the compiled bounds evaluator (§5.1's leaf loop
// nest, executed rather than priced). The lowering runs once per plan; leaf
// tasks then execute every in-bounds point of their iteration space with no
// interface dispatch, no map lookups, and no per-point allocation:
//
//   - index reconstruction is a schedule.ValueProgram (integer ops only),
//     run once per block of up to three innermost leaf loops when their
//     reconstruction is affine (schedule.BlockPlan), once per point otherwise;
//   - every tensor access is an offset computation against the raw storage
//     surface of the task's region requirement (Ctx.ReadSurface /
//     Ctx.WriteSurface), resolved once per task;
//   - the expression itself is a register program whose op order matches a
//     postorder walk of the tree, so results are bit-identical to the
//     tree-walking fallback kernel (asserted by TestKernelProgGolden).

type kOpKind uint8

const (
	// kLoad reads accesses[acc] at the current point.
	kLoad kOpKind = iota
	// kLit produces a floating-point constant.
	kLit
	// kAdd/kMul combine two earlier registers.
	kAdd
	kMul
)

// kOp is one instruction; its destination register is its index in the
// program, so every instruction writes a fresh register (expressions are
// small — simplicity beats register pressure here).
type kOp struct {
	kind kOpKind
	a, b int32   // kAdd/kMul: operand registers
	acc  int32   // kLoad: index into accesses
	lit  float64 // kLit
}

// accessPlan maps one tensor access to the value domain: pos[d] is the
// position in the ValueProgram's origVals output indexing tensor dimension
// d. An empty pos is a scalar access (rank-1 unit region, offset 0).
type accessPlan struct {
	tensor string
	pos    []int32
}

// kernelProg is a statement's Real-mode leaf body, compiled once per plan
// and shared by every launch and every task of the plan (it is immutable;
// tasks carry their own scratch).
type kernelProg struct {
	ops      []kOp
	out      int32 // register holding the RHS value (last op)
	store    accessPlan
	accesses []accessPlan // kLoad targets, RHS postorder
	reduces  bool
	// chain is the number of loads (2 or 3) when the program is a pure
	// left-associated product of loads — load, load, mul[, load, mul] — and
	// 0 otherwise. The block lowerings key on it: a reducing two-load chain
	// is the one-multiply shape the register-tiled micro-kernel runs, and
	// chains of either length fuse into one multiply-accumulate loop per row.
	// Detected once at lowering; the fused loops perform the same
	// floating-point operations in the same per-cell order as the generic
	// register walk, so results stay bit-identical.
	chain int
	vp    *schedule.ValueProgram

	// Block plan over the innermost leaf variables (planBlock): nil when no
	// leaf loops exist or no innermost reconstruction is affine. blockVars
	// is how many leaf variables a block spans (3, 2 or 1); blockIDs and
	// blockExt are their variable ids and loop extents by block dimension
	// (plane, outer, inner), -1 and 1 where the block has fewer. plane is
	// bp's one-plane view, which judges a block BlockRun rejects plane by
	// plane. rowInv marks, per op, a value that does not change along the
	// block's inner variable — the row program computes it once per row as a
	// scalar; rowLen is the inner variable's loop extent (row temporaries).
	bp                 *schedule.BlockPlan
	plane              schedule.BlockPlan
	blockVars          int
	blockIDs, blockExt [3]int
	rowInv             []bool
	rowLen             int
}

// compileKernelProg lowers stmt's RHS against the plan's evaluator.
func compileKernelProg(stmt *ir.Assignment, ev *schedule.Evaluator, reduces bool) *kernelProg {
	origPos := map[string]int32{}
	for i, id := range ev.OrigIDs() {
		origPos[ev.VarName(int(id))] = int32(i)
	}
	plan := func(a *ir.Access) accessPlan {
		p := accessPlan{tensor: a.Tensor}
		for _, v := range a.Indices {
			p.pos = append(p.pos, origPos[v.Name])
		}
		return p
	}
	kp := &kernelProg{store: plan(stmt.LHS), reduces: reduces, vp: ev.CompileValues()}
	var lower func(e ir.Expr) int32
	lower = func(e ir.Expr) int32 {
		switch e := e.(type) {
		case *ir.Access:
			kp.accesses = append(kp.accesses, plan(e))
			kp.ops = append(kp.ops, kOp{kind: kLoad, acc: int32(len(kp.accesses) - 1)})
		case *ir.Literal:
			kp.ops = append(kp.ops, kOp{kind: kLit, lit: e.Value})
		case *ir.Add:
			l, r := lower(e.L), lower(e.R)
			kp.ops = append(kp.ops, kOp{kind: kAdd, a: l, b: r})
		case *ir.Mul:
			l, r := lower(e.L), lower(e.R)
			kp.ops = append(kp.ops, kOp{kind: kMul, a: l, b: r})
		default:
			panic(fmt.Sprintf("core: unknown expression %T", e))
		}
		return int32(len(kp.ops) - 1)
	}
	kp.out = lower(stmt.RHS)
	kp.chain = productChain(kp.ops)
	return kp
}

// productChain recognises load, load, mul(0,1)[, load, mul(2,3)]: the
// postorder of B*C and (B*C)*D. Chain load j is accesses[j].
func productChain(ops []kOp) int {
	if len(ops) != 3 && len(ops) != 5 {
		return 0
	}
	for i := range ops {
		op := &ops[i]
		switch {
		case i < 2 || i == 3:
			if op.kind != kLoad {
				return 0
			}
		case op.kind != kMul || int(op.a) != i-2 || int(op.b) != i-1:
			return 0
		}
	}
	return (len(ops) + 1) / 2
}

// planBlock compiles the block plan over the innermost leaf variables: the
// three innermost when all reconstruct affinely, else the two innermost, else
// the innermost alone (the others walk with the task's odometer), else none —
// the kernel keeps the per-point walk. leafIDs and leafExt are the leaf
// loops' variable ids and extents, outermost first.
func (kp *kernelProg) planBlock(leafIDs, leafExt []int) {
	kp.blockIDs, kp.blockExt = [3]int{-1, -1, -1}, [3]int{1, 1, 1}
	n := len(leafIDs)
	for k := min(n, 3); k >= 1 && kp.bp == nil; k-- {
		kp.bp, kp.blockVars = kp.vp.CompileBlock(leafIDs[n-k:], leafExt[n-k:]), k
	}
	if kp.bp == nil {
		kp.blockVars = 0
		return
	}
	copy(kp.blockIDs[3-kp.blockVars:], leafIDs[n-kp.blockVars:])
	copy(kp.blockExt[3-kp.blockVars:], leafExt[n-kp.blockVars:])
	kp.plane = kp.bp.Plane()
	kp.rowLen = max(leafExt[n-1], 0)
	inner := kp.bp.Steps(2)
	kp.rowInv = make([]bool, len(kp.ops))
	for i := range kp.ops {
		switch op := &kp.ops[i]; op.kind {
		case kLoad:
			kp.rowInv[i] = true
			for _, pos := range kp.accesses[op.acc].pos {
				if inner[pos] != 0 {
					kp.rowInv[i] = false
				}
			}
		case kLit:
			kp.rowInv[i] = true
		default:
			kp.rowInv[i] = kp.rowInv[op.a] && kp.rowInv[op.b]
		}
	}
}

// boundAccess is an accessPlan resolved against one task's raw storage: the
// element for the current point lives at data[base+sum(origVals[pos[d]]*stride[d])].
// Under a block plan sw, su and sv are the element strides per unit of the
// block's plane, outer and inner variable (fixed per task) and off is the
// element offset of the current plane's origin: plane point (u,v) lives at
// data[off+u*su+v*sv], and the next plane's origin at off+sw.
type boundAccess struct {
	data   []float64
	stride []int
	pos    []int32
	base   int

	off, sw, su, sv int
}

// bindRead resolves a read access against the task's requirement surface.
func (p *accessPlan) bindRead(ctx *legion.Ctx) boundAccess {
	data, strides := ctx.ReadSurface(p.tensor)
	return boundAccess{data: data, stride: strides, pos: p.pos}
}

// bindWrite resolves the store target (accumulator or in-place instance).
func (p *accessPlan) bindWrite(ctx *legion.Ctx) boundAccess {
	data, strides, base := ctx.WriteSurface(p.tensor)
	return boundAccess{data: data, stride: strides, pos: p.pos, base: base}
}

func (b *boundAccess) offset(origVals []int) int {
	off := b.base
	for d, pos := range b.pos {
		off += origVals[pos] * b.stride[d]
	}
	return off
}

// run executes the program for one in-bounds point, reading the reconstructed
// original index values from origVals and combining into the store surface.
func (kp *kernelProg) run(loads []boundAccess, store *boundAccess, regs []float64, origVals []int) {
	for i := range kp.ops {
		op := &kp.ops[i]
		switch op.kind {
		case kLoad:
			l := &loads[op.acc]
			regs[i] = l.data[l.offset(origVals)]
		case kLit:
			regs[i] = op.lit
		case kAdd:
			regs[i] = regs[op.a] + regs[op.b]
		case kMul:
			regs[i] = regs[op.a] * regs[op.b]
		}
	}
	v := regs[kp.out]
	if kp.reduces {
		store.data[store.offset(origVals)] += v
	} else {
		store.data[store.offset(origVals)] = v
	}
}
