package legion

import (
	"slices"
	"sort"

	"distal/internal/tensor"
)

// ownerIndex is a point-location index over a region's persistent owner
// rects. Along each dimension the owners' distinct Lo and Hi bounds cut the
// region into bands, and the bands' product is a grid of cells. Each cell
// lists the owners covering it, in placement order. An owner covers whole
// cells only, so:
//
//   - an owner containing a rect contains the rect's Lo corner, so the cover
//     candidates are the owners of the one cell holding rect.Lo;
//   - an owner overlapping a rect covers some cell the rect overlaps, and
//     every owner listed in such a cell overlaps the rect.
//
// Blocked distnot placements, hierarchical ones included, are product
// partitions: every level splits each piece along each dimension
// independently, and pieces sharing a range along a dimension split it
// alike. So the number of cells is at most the product of the per-dimension
// block counts, and an unreplicated placement has one owner per cell.
//
// Owners are immutable for a run, so the index is built once when the region
// is placed and never changes. Its arrays, query scratch included, are the
// region state's and serve the next walk that reuses the state.
type ownerIndex struct {
	cut    []int   // backing of bounds, stride and box
	bounds [][]int // bounds[d]: sorted distinct owner bounds along dimension d
	stride []int   // row-major stride of dimension d in the cell grid
	start  []int32 // cell c lists the owners ids[start[c]:start[c+1]]
	ids    []int32 // indices into regState.persistent

	// Query scratch. A query's result stays valid until the next query of
	// the same region.
	box    []int // the queried cell box: lo, hi and the odometer, rank each
	hits   []int32
	pieces []ownerPiece
	ints   []int // backing of the pieces' rects
}

// ownerPiece is one persistent owner's overlap with a requirement rect.
type ownerPiece struct {
	inst  *instance
	piece tensor.Rect
	bytes int64
}

// build indexes the given owners, whose rects are non-empty and of the
// given rank, reusing the index's arrays.
func (ix *ownerIndex) build(owners []instance, rank int) {
	ix.bounds, ix.start, ix.ids = ix.bounds[:0], ix.start[:0], ix.ids[:0]
	if len(owners) == 0 {
		return
	}
	// One backing holds every dimension's bounds, the strides and the box.
	ix.cut = resize(ix.cut, 2*len(owners)*rank+4*rank)
	cut := ix.cut[:0]
	ix.bounds = resize(ix.bounds, rank)
	cells := 1
	for d := range rank {
		base := len(cut)
		for i := range owners {
			cut = append(cut, owners[i].rect.Lo[d], owners[i].rect.Hi[d])
		}
		slices.Sort(cut[base:])
		b := slices.Compact(cut[base:])
		cut = cut[:base+len(b)]
		ix.bounds[d] = b[:len(b):len(b)]
		cells *= len(b) - 1
	}
	rest := cut[len(cut):cap(cut)]
	ix.stride, ix.box = rest[:rank:rank], rest[rank:4*rank:4*rank]
	for d, s := rank-1, 1; d >= 0; d-- {
		ix.stride[d] = s
		s *= len(ix.bounds[d]) - 1
	}

	// Counting sort of (cell, owner) pairs: count each cell's owners, turn
	// the counts into starts, fill, then shift the advanced starts back.
	ix.start = resize(ix.start, cells+1)
	for i := range owners {
		ix.setBox(owners[i].rect)
		ix.eachCell(func(c int) { ix.start[c+1]++ })
	}
	for c := range cells {
		ix.start[c+1] += ix.start[c]
	}
	ix.ids = resize(ix.ids, int(ix.start[cells]))
	for i := range owners {
		ix.setBox(owners[i].rect)
		ix.eachCell(func(c int) {
			ix.ids[ix.start[c]] = int32(i)
			ix.start[c]++
		})
	}
	copy(ix.start[1:], ix.start[:cells])
	ix.start[0] = 0
}

// setBox sets the box to the cells of an owner rect, whose bounds are
// among the cut bounds.
func (ix *ownerIndex) setBox(r tensor.Rect) {
	rank := len(ix.bounds)
	for d, b := range ix.bounds {
		ix.box[d] = sort.SearchInts(b, r.Lo[d])
		ix.box[rank+d] = sort.SearchInts(b, r.Hi[d])
	}
}

// overlapBox sets the box to the cells a non-empty rect overlaps and
// reports whether there are any.
func (ix *ownerIndex) overlapBox(r tensor.Rect) bool {
	rank := len(ix.bounds)
	for d, b := range ix.bounds {
		lo := max(sort.SearchInts(b, r.Lo[d]+1)-1, 0) // last bound <= Lo
		hi := min(sort.SearchInts(b, r.Hi[d]), len(b)-1)
		if lo >= hi {
			return false
		}
		ix.box[d], ix.box[rank+d] = lo, hi
	}
	return true
}

// eachCell calls f with the flat index of every cell of the (non-empty)
// box, in row-major order.
func (ix *ownerIndex) eachCell(f func(c int)) {
	rank := len(ix.bounds)
	lo, hi, cur := ix.box[:rank], ix.box[rank:2*rank], ix.box[2*rank:]
	copy(cur, lo)
	for {
		c := 0
		for d, x := range cur {
			c += x * ix.stride[d]
		}
		f(c)
		d := rank - 1
		for ; d >= 0; d-- {
			if cur[d]++; cur[d] < hi[d] {
				break
			}
			cur[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// cellOf returns the cell holding point p, and false outside every owner.
func (ix *ownerIndex) cellOf(p []int) (int, bool) {
	if len(ix.start) == 0 {
		return 0, false
	}
	c := 0
	for d, b := range ix.bounds {
		i := sort.SearchInts(b, p[d]+1) - 1 // last bound <= p[d]
		if i < 0 || i >= len(b)-1 {
			return 0, false
		}
		c += i * ix.stride[d]
	}
	return c, true
}

// coverFor appends to dst the indices of the persistent instances whose
// rect contains the given requirement rect, in placement order.
func (rs *regState) coverFor(dst []int32, rect tensor.Rect) []int32 {
	if rect.Empty() {
		for i := range rs.persistent {
			dst = append(dst, int32(i))
		}
		return dst
	}
	ix := &rs.owners
	c, ok := ix.cellOf(rect.Lo)
	if !ok {
		return dst
	}
	for _, id := range ix.ids[ix.start[c]:ix.start[c+1]] {
		if rs.persistent[id].rect.ContainsRect(rect) {
			dst = append(dst, id)
		}
	}
	return dst
}

// factsOf returns the facts of requirement q's rect, learning its volume
// and bytes on the first request of its id.
func (rs *regState) factsOf(q *Req) *rectFacts {
	f := &rs.facts[q.ID]
	if !f.known {
		*f = rectFacts{vol: int64(q.Rect.Volume()), bytes: q.Region.Bytes(q.Rect), covers: -1, known: true}
	}
	return f
}

// coverOf returns the indices of the owners containing requirement q's
// rect, of facts f, in placement order, learning them on the first call.
func (rs *regState) coverOf(q *Req, f *rectFacts) []int32 {
	if f.covers < 0 {
		n := int32(len(rs.coverIDs))
		rs.coverIDs = rs.coverFor(rs.coverIDs, q.Rect)
		f.cover, f.covers = n, int32(len(rs.coverIDs))-n
	}
	return rs.coverIDs[f.cover : f.cover+f.covers]
}

// piecesFor returns the persistent owners overlapping the given requirement
// rect together with their (non-empty) overlaps, in placement order. The
// result, rects included, is scratch valid until the region's next
// piecesFor.
func (rs *regState) piecesFor(rect tensor.Rect) []ownerPiece {
	ix := &rs.owners
	ix.pieces, ix.ints, ix.hits = ix.pieces[:0], ix.ints[:0], ix.hits[:0]
	if len(ix.start) == 0 || rect.Empty() || !ix.overlapBox(rect) {
		return ix.pieces
	}
	ix.eachCell(func(c int) { ix.hits = append(ix.hits, ix.ids[ix.start[c]:ix.start[c+1]]...) })
	slices.Sort(ix.hits)
	ix.hits = slices.Compact(ix.hits)
	rank := len(rect.Lo)
	for _, id := range ix.hits {
		o := &rs.persistent[id]
		k := len(ix.ints)
		ix.ints = append(append(ix.ints, o.rect.Lo...), o.rect.Hi...)
		piece := tensor.Rect{Lo: ix.ints[k : k+rank : k+rank], Hi: ix.ints[k+rank : k+2*rank : k+2*rank]}
		for d := range piece.Lo {
			piece.Lo[d] = max(piece.Lo[d], rect.Lo[d])
			piece.Hi[d] = min(piece.Hi[d], rect.Hi[d])
		}
		ix.pieces = append(ix.pieces, ownerPiece{inst: o, piece: piece, bytes: rs.region.Bytes(piece)})
	}
	return ix.pieces
}

// slab hands out values carved from chunks and takes released ones back for
// reuse, so the walk allocates one chunk per many instances or groups rather
// than one object each. The chunks outlive the walk: reset hands them out
// again to the next one. A value from get holds stale contents when
// recycled: the caller sets every field.
type slab[T any] struct {
	chunks [][]T // every chunk allocated; the walk has taken chunks[:used]
	used   int
	chunk  []T // the untaken rest of the chunk in use
	free   []*T
}

// get returns a recycled value, or carves one from the chunk, moving to the
// next chunk (allocating one of n values when none is left) when it is used
// up.
func (s *slab[T]) get(n int) *T {
	if k := len(s.free); k > 0 {
		v := s.free[k-1]
		s.free = s.free[:k-1]
		return v
	}
	if len(s.chunk) == 0 {
		if s.used == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, max(n, 1)))
		}
		s.chunk = s.chunks[s.used]
		s.used++
	}
	v := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return v
}

// put releases a value for reuse; nothing may reference it any more.
func (s *slab[T]) put(v *T) { s.free = append(s.free, v) }

// reset releases every value for the next walk. It zeroes the chunks used,
// so a pooled chunk keeps no program's regions alive.
func (s *slab[T]) reset() {
	for _, c := range s.chunks[:s.used] {
		clear(c)
	}
	s.used, s.chunk = 0, nil
	clear(s.free)
	s.free = s.free[:0]
}
