package core

// This file executes a kernelProg over one block of up to three innermost
// leaf loops (schedule.BlockPlan), a plane of the two innermost at a time:
// the ValueProgram, the ragged limits and every access's origin offset were
// computed once for the block, and every access advances by a constant
// element stride per unit of any block variable, so everything here is float
// traffic over raw storage.
//
// A block runs through one of two lowerings, chosen per task from the op
// program's shape (kernelProg.chain) and the bound strides:
//
//   - the one-multiply reduce shape (store += load*load) with exactly one
//     block variable a reduction runs a register-tiled micro-kernel: four
//     adjacent output cells accumulate in registers while the reduction loop
//     runs innermost per tile (leaf.Tile). When the plane variable moves the
//     store by at least a row and not the streamed operand y (SUMMA's ii),
//     planes run four at a time through the 4×4 tile (leaf.Tile4: one load
//     of y serves four store rows); leftover planes, and every block whose
//     planes share store cells, read different y or alias the store, run
//     leaf.Tile per plane;
//   - every other body runs the register program a row at a time (runRows),
//     with the product-chain shapes fused into a single loop per row
//     (leaf.DotRows when the row is a reduction, leaf.Axpy when it walks the
//     output contiguously). When every row of a two-multiply chain adds into
//     the same output row (MTTKRP's A(i,l) over ki, l) and the store shares
//     no array with a factor, the row stays in registers across the rows
//     (leaf.HeldRow: eight cells per group, SSE2 on amd64).
//
// Bit-identity with the per-point walk (and so with the tree oracle) rests
// on two rules. No expression is re-associated: a row-invariant subtree is
// evaluated once, as the same operation on the same operands, and
// multiplication operands are only ever swapped (IEEE multiplication is
// commutative). And every output cell receives its terms in the order the
// leaf loop nest visits them: a plane holds all of a cell's terms for one
// assignment of the loops outside it, a block's planes run in increasing
// order, a tile or row loop walks the plane's reduction variable(s) in
// increasing order, and cells are independent.
//
// The float loops themselves live in internal/leaf, which links first, so
// their code placement does not move with this package's neighbours; its
// package doc says how they keep products from fusing into multiply-adds.

import "distal/internal/leaf"

// lowering selects how a task's blocks execute.
type lowering uint8

const (
	// lowerRows runs the register program a row at a time.
	lowerRows lowering = iota
	// lowerTileOuter and lowerTileInner run the micro-kernel with the tile
	// along the block's outer variable (the inner one is the reduction) or
	// along the inner variable (the outer one is the reduction: the axpy
	// form, where the innermost loop walks the output contiguously).
	lowerTileOuter
	lowerTileInner
	// lowerDot runs a two-load product whose row is a reduction into one
	// cell as a strided dot product per row.
	lowerDot
	// lowerAxpy runs a product chain whose row walks the output
	// contiguously as one fused multiply-accumulate loop per row.
	lowerAxpy
	// lowerHeldRow is lowerAxpy where every row adds into the same output
	// row, p2 is absent and c present: the row's cells stay in registers
	// across all rows (leaf.HeldRow).
	lowerHeldRow
)

// blockLowering is a task's lowering with its operand roles resolved.
type blockLowering struct {
	kind lowering
	// lowerTile*: x does not move along the tile variable, y and the store
	// are contiguous along it. lowerDot: the two factors.
	x, y *boundAccess
	// planes4: the tile lowering runs planes four at a time (leaf.Tile4).
	planes4 bool
	// lowerAxpy, lowerHeldRow: the row adds (p*b[v])*c[v] into the store,
	// p = p1[*p2] row-invariant; p2 and c are nil when absent.
	p1, p2, b, c *boundAccess
}

// bindBlock resolves every access's block strides for the task and picks the
// lowering. Read surfaces are fixed per execution and the store's depends on
// the task's accumulator, so both resolve here, once per task.
func (kp *kernelProg) bindBlock(loads []boundAccess, store *boundAccess) blockLowering {
	sw, su, sv := kp.bp.Steps(0), kp.bp.Steps(1), kp.bp.Steps(2)
	bind := func(b *boundAccess) {
		b.sw, b.su, b.sv = 0, 0, 0
		for d, pos := range b.pos {
			b.sw += sw[pos] * b.stride[d]
			b.su += su[pos] * b.stride[d]
			b.sv += sv[pos] * b.stride[d]
		}
	}
	for i := range loads {
		bind(&loads[i])
	}
	bind(store)

	if !kp.reduces || kp.chain == 0 {
		return blockLowering{kind: lowerRows}
	}
	l0, l1 := &loads[0], &loads[1]
	if kp.chain == 2 {
		switch {
		case store.sv == 0 && store.su == 1 && l0.su == 0 && l1.su == 1:
			return kp.tile(lowerTileOuter, store, l0, l1)
		case store.sv == 0 && store.su == 1 && l0.su == 1 && l1.su == 0:
			return kp.tile(lowerTileOuter, store, l1, l0)
		case store.su == 0 && store.sv == 1 && l0.sv == 0 && l1.sv == 1:
			return kp.tile(lowerTileInner, store, l0, l1)
		case store.su == 0 && store.sv == 1 && l0.sv == 1 && l1.sv == 0:
			return kp.tile(lowerTileInner, store, l1, l0)
		case store.sv == 0:
			return blockLowering{kind: lowerDot, x: l0, y: l1}
		}
	}
	if store.sv != 1 {
		return blockLowering{kind: lowerRows}
	}
	// A contiguous output row. The first multiply's operands may swap, so a
	// row-invariant factor among the first two leads as the scalar.
	low := blockLowering{kind: lowerAxpy}
	switch {
	case l0.sv == 0 && l1.sv == 1:
		low.p1, low.b = l0, l1
	case l0.sv == 1 && l1.sv == 0:
		low.p1, low.b = l1, l0
	case l0.sv == 0 && l1.sv == 0 && kp.chain == 3:
		low.p1, low.p2 = l0, l1
	default:
		return blockLowering{kind: lowerRows}
	}
	if kp.chain == 3 {
		l2 := &loads[2]
		switch {
		case l2.sv != 1:
			return blockLowering{kind: lowerRows}
		case low.b == nil:
			low.b = l2
		default:
			low.c = l2
		}
	}
	// HeldRow holds the store row across rows, so it needs a store that
	// stays put along u and that no factor reads, and the chain p1, b, c
	// (c present means p2 absent: a chain has at most three factors).
	// Counted over the six benchmark workloads (1 s each) and the six
	// examples, this path takes every Axpy-shaped call: 2 924 544 calls in
	// 2 856 run-mttkrp tasks and 128 in the mttkrp example's 8, against no
	// fallback Axpy call; no other workload or example runs this lowering.
	if store.su == 0 && low.c != nil && !sameArray(store.data, low.p1.data) &&
		!sameArray(store.data, low.b.data) && !sameArray(store.data, low.c.data) {
		low.kind = lowerHeldRow
	}
	return low
}

// tile returns a tile lowering along the block's outer (lowerTileOuter) or
// inner variable. Its planes run four at a time when Tile4's terms hold for
// every box of the block: the planes read one y (y.sw == 0), their store rows
// are disjoint (a plane moves the store by at least the tile variable's
// extent, which bounds every box's tile width), and the store shares no
// array with x or y.
func (kp *kernelProg) tile(kind lowering, store, x, y *boundAccess) blockLowering {
	width := kp.blockExt[1]
	if kind == lowerTileInner {
		width = kp.blockExt[2]
	}
	return blockLowering{kind: kind, x: x, y: y,
		planes4: y.sw == 0 && store.sw >= width && !sameArray(store.data, x.data) && !sameArray(store.data, y.data)}
}

// sameArray reports whether a and b share a backing array. Tensor storage
// is never cut with a three-index slice (a batch slab's instances are
// two-index slices of one array), so every slice of an array ends its
// capacity at the array's last element.
func sameArray(a, b []float64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// runBlock executes the in-space prefix box BlockRun returned, ks.origVals
// holding the original variables at its origin: one origin-offset
// computation per access, then the box's planes in increasing order, each
// plane's box[1] x box[2] prefix through the task's lowering, every access
// stepping by its plane stride sw from one plane's origin to the next.
func (kp *kernelProg) runBlock(ks *kernelScratch, box [3]int) {
	if box[0] == 0 {
		return // the whole block is outside; otherwise no dimension is 0
	}
	loads, store := ks.loads, &ks.store
	for i := range loads {
		loads[i].off = loads[i].offset(ks.origVals)
	}
	store.off = store.offset(ks.origVals)
	nu, nv, low := box[1], box[2], &ks.low
	if low.kind == lowerTileOuter || low.kind == lowerTileInner {
		x, y := low.x, low.y
		xr, yr, nt, nr := x.sv, y.sv, nu, nv
		if low.kind == lowerTileInner {
			xr, yr, nt, nr = x.su, y.su, nv, nu
		}
		so, xo, yo := store.off, x.off, y.off
		w := 0
		if low.planes4 {
			for ; w+4 <= box[0]; w += 4 {
				leaf.Tile4(store.data, so, store.sw, x.data, xo, x.sw, xr, y.data, yo, yr, nt, nr)
				so, xo = so+4*store.sw, xo+4*x.sw
			}
		}
		for ; w < box[0]; w++ {
			leaf.Tile(store.data, so, x.data, xo, xr, y.data, yo, yr, nt, nr)
			so, xo, yo = so+store.sw, xo+x.sw, yo+y.sw
		}
		return
	}
	for w := 0; ; {
		switch low.kind {
		case lowerDot:
			leaf.DotRows(store.view(), low.x.view(), low.y.view(), nu, nv)
		case lowerAxpy:
			leaf.Axpy(store.view(), low.p1.view(), low.p2.view(), low.b.view(), low.c.view(), nu, nv)
		case lowerHeldRow:
			leaf.HeldRow(store.view(), low.p1.view(), low.b.view(), low.c.view(), nu, nv)
		default:
			kp.runRows(ks, loads, store, nu, nv)
		}
		if w++; w == box[0] {
			return
		}
		for i := range loads {
			loads[i].off += loads[i].sw
		}
		store.off += store.sw
	}
}

// view returns the access as a leaf view, a nil access as an absent one.
func (b *boundAccess) view() leaf.View {
	if b == nil {
		return leaf.View{}
	}
	return leaf.View{Data: b.data, Off: b.off, SU: b.su, SV: b.sv}
}

// rowVec is a row-varying value of the row program: n elements starting at
// data[off], stride apart — a view of a tensor surface for a load, a row
// temporary for an operation's result.
type rowVec struct {
	data        []float64
	off, stride int
}

// runRows is the general lowering: the register program executed a row at a
// time. Op dispatch happens once per row, not per element; values that do
// not change along the row (kernelProg.rowInv) are computed once as scalars;
// every other op is one loop over the row into its temporary. Each element
// sees the same operations on the same operands as in kernelProg.run, and a
// reducing store adds the row's elements in order, so results are
// bit-identical to the per-point walk.
func (kp *kernelProg) runRows(ks *kernelScratch, loads []boundAccess, store *boundAccess, nu, nv int) {
	regs, vecs := ks.regs, ks.vecs
	for u := 0; u < nu; u++ {
		for i := range kp.ops {
			op := &kp.ops[i]
			switch op.kind {
			case kLoad:
				l := &loads[op.acc]
				if kp.rowInv[i] {
					regs[i] = l.data[l.off+u*l.su]
				} else {
					vecs[i] = rowVec{l.data, l.off + u*l.su, l.sv}
				}
			case kLit:
				regs[i] = op.lit
			default:
				mul := op.kind == kMul
				ia, ib := kp.rowInv[op.a], kp.rowInv[op.b]
				if ia && ib {
					if mul {
						regs[i] = regs[op.a] * regs[op.b]
					} else {
						regs[i] = regs[op.a] + regs[op.b]
					}
					continue
				}
				dst := ks.rowTemp(i, nv)
				switch {
				case ia:
					leaf.ScalarOp(mul, dst, regs[op.a], ks.unitRow(int(op.b), nv))
				case ib:
					leaf.ScalarOp(mul, dst, regs[op.b], ks.unitRow(int(op.a), nv))
				default:
					leaf.VecOp(mul, dst, ks.unitRow(int(op.a), nv), ks.unitRow(int(op.b), nv))
				}
				vecs[i] = rowVec{dst, 0, 1}
			}
		}
		// The result always moves along the row: every leaf variable derives
		// from a statement variable, and every statement variable indexes
		// some access of the right-hand side.
		leaf.StoreRow(kp.reduces, store.data, store.off+u*store.su, store.sv, ks.unitRow(int(kp.out), nv))
	}
}

// rowTemp returns op i's row temporary, n long.
func (ks *kernelScratch) rowTemp(i, n int) []float64 {
	return ks.rows[i*ks.rowLen : i*ks.rowLen+n]
}

// unitRow returns op i's row value as a unit-stride slice, gathering a
// strided view into the op's temporary first (once: the view is replaced).
func (ks *kernelScratch) unitRow(i, n int) []float64 {
	v := &ks.vecs[i]
	if v.stride != 1 {
		tmp := ks.rowTemp(i, n)
		leaf.Gather(tmp, v.data, v.off, v.stride)
		*v = rowVec{tmp, 0, 1}
	}
	return v.data[v.off : v.off+n]
}
