// Package tensor provides dense, row-major, multi-dimensional tensors and
// the hyper-rectangle (Rect) arithmetic used throughout the compiler and the
// runtime for partitioning, bounds analysis, and communication accounting.
package tensor

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Rect is a half-open hyper-rectangle: it contains every integer point p with
// Lo[d] <= p[d] < Hi[d] for all dimensions d. A Rect with any Hi[d] <= Lo[d]
// is empty. Rects are the unit of partitioning and of communication: every
// copy moved by the runtime is the contents of one Rect of one tensor.
type Rect struct {
	Lo, Hi []int
}

// NewRect returns the rect [lo, hi). The slices are copied.
func NewRect(lo, hi []int) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("tensor: rect lo/hi rank mismatch: %d vs %d", len(lo), len(hi)))
	}
	return Rect{Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...)}
}

// FullRect returns the rect covering an entire tensor of the given shape.
func FullRect(shape []int) Rect {
	lo := make([]int, len(shape))
	hi := append([]int(nil), shape...)
	return Rect{Lo: lo, Hi: hi}
}

// Rank returns the number of dimensions.
func (r Rect) Rank() int { return len(r.Lo) }

// Empty reports whether the rect contains no points.
func (r Rect) Empty() bool {
	for d := range r.Lo {
		if r.Hi[d] <= r.Lo[d] {
			return true
		}
	}
	return len(r.Lo) == 0
}

// Volume returns the number of integer points in the rect.
func (r Rect) Volume() int {
	if len(r.Lo) == 0 {
		return 0
	}
	v := 1
	for d := range r.Lo {
		ext := r.Hi[d] - r.Lo[d]
		if ext <= 0 {
			return 0
		}
		v *= ext
	}
	return v
}

// Contains reports whether the point p lies inside the rect.
func (r Rect) Contains(p []int) bool {
	if len(p) != len(r.Lo) {
		return false
	}
	for d := range p {
		if p[d] < r.Lo[d] || p[d] >= r.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether other is entirely inside r. An empty other is
// contained in anything of the same rank.
func (r Rect) ContainsRect(other Rect) bool {
	if other.Rank() != r.Rank() {
		return false
	}
	if other.Empty() {
		return true
	}
	for d := range r.Lo {
		if other.Lo[d] < r.Lo[d] || other.Hi[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two rects (of equal rank) share at least one
// point, without building their intersection.
func (r Rect) Overlaps(other Rect) bool {
	if r.Rank() != other.Rank() {
		panic(fmt.Sprintf("tensor: overlap rank mismatch: %d vs %d", r.Rank(), other.Rank()))
	}
	for d := range r.Lo {
		if min(r.Hi[d], other.Hi[d]) <= max(r.Lo[d], other.Lo[d]) {
			return false
		}
	}
	return len(r.Lo) > 0
}

// Equal reports whether the two rects describe the same point set.
// All empty rects of equal rank are considered equal.
func (r Rect) Equal(other Rect) bool {
	if r.Rank() != other.Rank() {
		return false
	}
	if r.Empty() && other.Empty() {
		return true
	}
	for d := range r.Lo {
		if r.Lo[d] != other.Lo[d] || r.Hi[d] != other.Hi[d] {
			return false
		}
	}
	return true
}

// Extent returns Hi[d]-Lo[d].
func (r Rect) Extent(d int) int { return r.Hi[d] - r.Lo[d] }

// Points calls f for every point in the rect in row-major order. The point
// slice is reused between calls; f must not retain it.
func (r Rect) Points(f func(p []int)) {
	if r.Empty() {
		return
	}
	p := append([]int(nil), r.Lo...)
	for {
		f(p)
		d := len(p) - 1
		for d >= 0 {
			p[d]++
			if p[d] < r.Hi[d] {
				break
			}
			p[d] = r.Lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// RectKey is a cheap comparable identity for a Rect: two rects of equal
// rank and identical bounds have equal keys. It replaces Rect.String() as a
// map key on hot paths — building one allocates nothing for rects of rank
// up to four (the common case), and comparing is integer comparison rather
// than string formatting.
type RectKey struct {
	rank   int32
	lo, hi [4]int64
	ext    string // packed bounds of rects with rank > 4
}

// Key returns the rect's comparable identity.
func (r Rect) Key() RectKey {
	k := RectKey{rank: int32(len(r.Lo))}
	if len(r.Lo) <= 4 {
		for d := range r.Lo {
			k.lo[d] = int64(r.Lo[d])
			k.hi[d] = int64(r.Hi[d])
		}
		return k
	}
	buf := make([]byte, 0, 16*len(r.Lo))
	for d := range r.Lo {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Lo[d]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Hi[d]))
	}
	k.ext = string(buf)
	return k
}

// String renders the rect as, e.g., "[0,4)x[2,6)".
func (r Rect) String() string {
	if r.Rank() == 0 {
		return "[]"
	}
	var b strings.Builder
	for d := range r.Lo {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "[%d,%d)", r.Lo[d], r.Hi[d])
	}
	return b.String()
}

// BlockRange returns the half-open range [lo, hi) of block i when an extent
// of n elements is divided into count contiguous blocks of size ceil(n/count)
// (the final block may be short, and trailing blocks may be empty). This is
// the blocked partitioning function of §3.2.
func BlockRange(n, count, i int) (lo, hi int) {
	if count <= 0 {
		panic("tensor: BlockRange with non-positive count")
	}
	size := (n + count - 1) / count
	lo = i * size
	hi = lo + size
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
