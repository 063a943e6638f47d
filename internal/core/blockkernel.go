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
//     runs innermost per tile (tileBlock);
//   - every other body runs the register program a row at a time (runRows),
//     with the product-chain shapes fused into a single loop per row
//     (dotBlock when the row is a reduction, axpyBlock when it walks the
//     output contiguously).
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
// Products that feed an addition are written s += float64(a*b): the explicit
// conversion rounds the product, so compilers that fuse multiply-add (arm64,
// ppc64le, s390x, riscv64) produce the same bits as the generic walk, which
// rounds every product when it stores it to a register slot.

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
)

// blockLowering is a task's lowering with its operand roles resolved.
type blockLowering struct {
	kind lowering
	// lowerTile*: x does not move along the tile variable, y and the store
	// are contiguous along it. lowerDot: the two factors.
	x, y *boundAccess
	// lowerAxpy: the row adds (p*b[v])*c[v] into the store, p = p1[*p2]
	// row-invariant; p2 and c are nil when absent.
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
			return blockLowering{kind: lowerTileOuter, x: l0, y: l1}
		case store.sv == 0 && store.su == 1 && l0.su == 1 && l1.su == 0:
			return blockLowering{kind: lowerTileOuter, x: l1, y: l0}
		case store.su == 0 && store.sv == 1 && l0.sv == 0 && l1.sv == 1:
			return blockLowering{kind: lowerTileInner, x: l0, y: l1}
		case store.su == 0 && store.sv == 1 && l0.sv == 1 && l1.sv == 0:
			return blockLowering{kind: lowerTileInner, x: l1, y: l0}
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
	return low
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
		for range box[0] {
			tileBlock(store.data, so, x.data, xo, xr, y.data, yo, yr, nt, nr)
			so, xo, yo = so+store.sw, xo+x.sw, yo+y.sw
		}
		return
	}
	for w := 0; ; {
		switch low.kind {
		case lowerDot:
			dotBlock(store, low.x, low.y, nu, nv)
		case lowerAxpy:
			axpyBlock(store, low.p1, low.p2, low.b, low.c, nu, nv)
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

// tileBlock is the one-multiply micro-kernel: s[t] += sum over r of
// x[r]*y[r][t] for nt adjacent output cells t (contiguous in s and in y) and
// nr reduction steps (x advances by xr, y by yr per step). Four cells
// accumulate in registers while r runs innermost per tile, so each cell
// still adds its nr terms in increasing r — the order of the leaf loop nest
// whichever of the two block variables r is — and the four independent
// chains hide the add latency a single running sum would serialise on. Cells
// past the last whole tile run the same recurrence two at a time, then one:
// narrow outputs (two cells per task is common) keep two chains in flight.
func tileBlock(s []float64, so int, x []float64, xo, xr int, y []float64, yo, yr int, nt, nr int) {
	t := 0
	for ; t+4 <= nt; t += 4 {
		st := s[so+t : so+t+4 : so+t+4]
		s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
		ix, iy := xo, yo+t
		for r := 0; r < nr; r++ {
			xv := x[ix]
			yt := y[iy : iy+4 : iy+4]
			s0 += float64(xv * yt[0])
			s1 += float64(xv * yt[1])
			s2 += float64(xv * yt[2])
			s3 += float64(xv * yt[3])
			ix += xr
			iy += yr
		}
		st[0], st[1], st[2], st[3] = s0, s1, s2, s3
	}
	if t+2 <= nt {
		st := s[so+t : so+t+2 : so+t+2]
		s0, s1 := st[0], st[1]
		ix, iy := xo, yo+t
		for r := 0; r < nr; r++ {
			xv := x[ix]
			yt := y[iy : iy+2 : iy+2]
			s0 += float64(xv * yt[0])
			s1 += float64(xv * yt[1])
			ix += xr
			iy += yr
		}
		st[0], st[1] = s0, s1
		t += 2
	}
	for ; t < nt; t++ {
		s[so+t] = dot(s[so+t], x, xo, xr, y, yo+t, yr, nr)
	}
}

// dot returns acc plus the n products a[ia+i*sa]*b[ib+i*sb], added in
// increasing i.
func dot(acc float64, a []float64, ia, sa int, b []float64, ib, sb int, n int) float64 {
	for i := 0; i < n; i++ {
		acc += float64(a[ia] * b[ib])
		ia += sa
		ib += sb
	}
	return acc
}

// dotBlock runs store += a*b where the row is a reduction (the store does
// not move along the inner variable): one strided dot product per row, the
// partial sum in a register. Rows run in order, so a store cell that does
// not move along the outer variable either still adds its terms in loop
// order.
func dotBlock(store, a, b *boundAccess, nu, nv int) {
	so, ao, bo := store.off, a.off, b.off
	for u := 0; u < nu; u++ {
		store.data[so] = dot(store.data[so], a.data, ao, a.sv, b.data, bo, b.sv, nv)
		so += store.su
		ao += a.su
		bo += b.su
	}
}

// axpyBlock runs a product chain whose rows walk the output contiguously:
// per row, p = p1 (times p2 when present) is read once, and the row adds
// p*b[v] — times c[v] when present — into the store. b, c and the store have
// unit stride along the row.
func axpyBlock(store, p1, p2, b, c *boundAccess, nu, nv int) {
	so, o1, bo := store.off, p1.off, b.off
	o2, co := 0, 0
	if p2 != nil {
		o2 = p2.off
	}
	if c != nil {
		co = c.off
	}
	for u := 0; u < nu; u++ {
		p := p1.data[o1]
		if p2 != nil {
			p = float64(p * p2.data[o2])
			o2 += p2.su
		}
		sr := store.data[so : so+nv]
		br := b.data[bo : bo+nv]
		br = br[:len(sr)]
		if c == nil {
			for v := range sr {
				sr[v] += float64(p * br[v])
			}
		} else {
			cr := c.data[co : co+nv]
			cr = cr[:len(sr)]
			for v := range sr {
				sr[v] += float64(float64(p*br[v]) * cr[v])
			}
			co += c.su
		}
		so += store.su
		o1 += p1.su
		bo += b.su
	}
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
	sd := store.data
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
					rowScalarOp(mul, dst, regs[op.a], ks.unitRow(int(op.b), nv))
				case ib:
					rowScalarOp(mul, dst, regs[op.b], ks.unitRow(int(op.a), nv))
				default:
					rowVecOp(mul, dst, ks.unitRow(int(op.a), nv), ks.unitRow(int(op.b), nv))
				}
				vecs[i] = rowVec{dst, 0, 1}
			}
		}
		// The result always moves along the row: every leaf variable derives
		// from a statement variable, and every statement variable indexes
		// some access of the right-hand side.
		so, ss := store.off+u*store.su, store.sv
		row := ks.unitRow(int(kp.out), nv)
		switch {
		case !kp.reduces:
			for _, x := range row {
				sd[so] = x
				so += ss
			}
		case ss == 0:
			acc := sd[so]
			for _, x := range row {
				acc += x
			}
			sd[so] = acc
		default:
			for _, x := range row {
				sd[so] += x
				so += ss
			}
		}
	}
}

// rowScalarOp writes s*b[v] or s+b[v] into dst (both operations commute, so
// one form serves either operand order).
func rowScalarOp(mul bool, dst []float64, s float64, b []float64) {
	b = b[:len(dst)]
	if mul {
		for v := range dst {
			dst[v] = s * b[v]
		}
		return
	}
	for v := range dst {
		dst[v] = s + b[v]
	}
}

// rowVecOp writes a[v]*b[v] or a[v]+b[v] into dst.
func rowVecOp(mul bool, dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	if mul {
		for v := range dst {
			dst[v] = a[v] * b[v]
		}
		return
	}
	for v := range dst {
		dst[v] = a[v] + b[v]
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
		off := v.off
		for x := range tmp {
			tmp[x] = v.data[off]
			off += v.stride
		}
		*v = rowVec{tmp, 0, 1}
	}
	return v.data[v.off : v.off+n]
}
