// Package leaf holds the float loops of the leaf kernels: the register-tiled
// micro-kernels, the strided dot products, the fused product-chain row and
// the row operations of the general lowering. internal/core chooses a
// lowering per task and walks the block (blockkernel.go); everything here is
// float traffic over raw storage, with offsets and strides, and no other
// package's types.
//
// The package imports nothing, and internal/tensor imports it, so the linker
// lays it out first among the module's packages, directly after the standard
// library. The loops' code placement — a row loop straddling a 64-byte line
// runs measurably slower — then depends only on the toolchain and on the
// binary's set of standard-library packages, not on edits to the packages
// linked before internal/core.
//
// Bit-identity with the per-point walk rests on core's rules (see
// blockkernel.go): no expression is re-associated, and every output cell
// receives its terms in loop order. Products that feed an addition are
// written s += float64(a*b): the explicit conversion rounds the product, so
// compilers that fuse multiply-add produce the same bits as the generic walk.
//
// Two kernels are assembly, each an SSE2 body (the amd64 baseline) with an
// AVX twin (vex_amd64.s) that init picks once, from CPUID and XGETBV; there
// is no switch. Tile4's 4×4 block (tile4_amd64.s), four planes that share
// the streamed operand, runs ≈2.4× Tile's flops on the GEMM leaf in SSE2,
// and ≈2–2.4× that in AVX. HeldRow's eight-cell group (rowheld_amd64.s) keeps
// an output row in registers while every row of the block adds into it, ≈3×
// Axpy's flops on the MTTKRP leaf in SSE2, and ≈1.6× that in AVX. All four
// hold to one rule: each product is a (V)MULPD, rounded, and its addition a
// separate (V)ADDPD, never a fused multiply-add (so AVX1 is all the twins
// need), and each twin keeps its SSE2 kernel's operand order, so the two
// return the same bits, NaN payloads included. Other ports run the Go loops
// (tile4_generic.go, rowheld_generic.go).
//
// The linker keeps the Go functions in source order, and the assembly after
// them. The order below puts Axpy at 0 mod 64 and Tile at 32 in the
// benchmark binary, where neither's hot row loop straddles a 64-byte line.
// With Axpy at 32, its MTTKRP loop spanned two lines and the run-mttkrp
// workload, which ran Axpy before HeldRow took its leaf, ran ≈10 % slower
// (2-vCPU x86-64 container, go1.24). HeldRow, Tile4 and the kernel choice's
// init (vex_amd64.go) sort after this file and move none of them, and
// PCALIGN aligns each assembly kernel's loop. The row operations are small
// enough that the compiler would inline them into their callers, and so lay
// their loops out with internal/core; they are marked go:noinline to stay
// here. Each call does a row's work.
package leaf

// View is a strided view of a float64 surface: element (u, v) of a block
// plane is Data[Off+u*SU+v*SV]. A View with nil Data is absent.
type View struct {
	Data        []float64
	Off, SU, SV int
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

// DotRows runs s += a*b over nu rows of nv where the row is a reduction (the
// store does not move along v): one strided dot product per row, the partial
// sum in a register. Rows run in order, so a store cell that does not move
// along u either still adds its terms in loop order.
func DotRows(s, a, b View, nu, nv int) {
	so, ao, bo := s.Off, a.Off, b.Off
	for u := 0; u < nu; u++ {
		s.Data[so] = dot(s.Data[so], a.Data, ao, a.SV, b.Data, bo, b.SV, nv)
		so += s.SU
		ao += a.SU
		bo += b.SU
	}
}

// Axpy runs a product chain over nu rows of nv whose rows walk the output
// contiguously: per row, p = p1 (times p2 when present) is read once, and
// the row adds p*b[v] — times c[v] when present — into s. b, c and s have
// unit stride along the row.
func Axpy(s, p1, p2, b, c View, nu, nv int) {
	so, o1, bo, o2, co := s.Off, p1.Off, b.Off, p2.Off, c.Off
	for u := 0; u < nu; u++ {
		p := p1.Data[o1]
		if p2.Data != nil {
			p = float64(p * p2.Data[o2])
			o2 += p2.SU
		}
		sr := s.Data[so : so+nv]
		br := b.Data[bo : bo+nv]
		br = br[:len(sr)]
		if c.Data == nil {
			for v := range sr {
				sr[v] += float64(p * br[v])
			}
		} else {
			cr := c.Data[co : co+nv]
			cr = cr[:len(sr)]
			for v := range sr {
				sr[v] += float64(float64(p*br[v]) * cr[v])
			}
			co += c.SU
		}
		so += s.SU
		o1 += p1.SU
		bo += b.SU
	}
}

// Tile is the one-multiply micro-kernel: s[t] += sum over r of x[r]*y[r][t]
// for nt adjacent output cells t (contiguous in s and in y) and nr reduction
// steps (x advances by xr, y by yr per step). Four cells accumulate in
// registers while r runs innermost per tile, so each cell still adds its nr
// terms in increasing r — the order of the leaf loop nest whichever of the
// two block variables r is — and the four independent chains hide the add
// latency a single running sum would serialise on. Cells past the last whole
// tile run the same recurrence two at a time, then one: narrow outputs (two
// cells per task is common) keep two chains in flight.
func Tile(s []float64, so int, x []float64, xo, xr int, y []float64, yo, yr int, nt, nr int) {
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

// ScalarOp writes s*b[v] or s+b[v] into dst (both operations commute, so
// one form serves either operand order).
//
//go:noinline
func ScalarOp(mul bool, dst []float64, s float64, b []float64) {
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

// VecOp writes a[v]*b[v] or a[v]+b[v] into dst.
//
//go:noinline
func VecOp(mul bool, dst, a, b []float64) {
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

// Gather copies the len(dst) elements of src from off, stride apart, into
// dst.
//
//go:noinline
func Gather(dst, src []float64, off, stride int) {
	for x := range dst {
		dst[x] = src[off]
		off += stride
	}
}

// StoreRow writes a row of results into dst from off, stride apart: it
// overwrites the cells, or with reduce adds into them — into one running sum
// in a register when the stride is 0, the cell's terms still added in row
// order.
//
//go:noinline
func StoreRow(reduce bool, dst []float64, off, stride int, row []float64) {
	switch {
	case !reduce:
		for _, x := range row {
			dst[off] = x
			off += stride
		}
	case stride == 0:
		acc := dst[off]
		for _, x := range row {
			acc += x
		}
		dst[off] = acc
	default:
		for _, x := range row {
			dst[off] += x
			off += stride
		}
	}
}
