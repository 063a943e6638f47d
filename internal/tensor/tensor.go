package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	// Link order only: a package tensor imports links before tensor, the
	// module's first package, so the leaf kernels' code placement does not
	// move with the packages linked after it (see package leaf).
	_ "distal/internal/leaf"
)

// Dense is a dense, row-major tensor of float64 values. It is the single
// value type moved, partitioned and computed on by the runtime.
type Dense struct {
	name    string
	shape   []int
	strides []int
	data    []float64
}

// Elems returns the element count of a row-major tensor of the given shape:
// the product of its dimensions, 1 for a scalar. It fails on a negative
// dimension and on a product that overflows int, so a caller sizing memory
// from untrusted shapes can never see a count that wrapped. Messages format
// a copy of shape, so shape itself never escapes and a caller may pass a
// stack array (the wire decoder does).
func Elems(shape []int) (int, error) {
	n := 1
	for _, s := range shape {
		if s < 0 {
			return 0, fmt.Errorf("tensor: negative dimension in shape %v", slices.Clone(shape))
		}
		if s != 0 && n > math.MaxInt/s {
			return 0, fmt.Errorf("tensor: shape %v has more than %d elements", slices.Clone(shape), math.MaxInt)
		}
		n *= s
	}
	return n, nil
}

// mustElems is Elems for shapes the caller has already validated: a bad
// shape here is a broken invariant.
func mustElems(shape []int) int {
	n, err := Elems(shape)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// New returns a zero-filled dense tensor with the given name and shape.
// A rank-0 tensor (empty shape) is a scalar holding one value.
func New(name string, shape ...int) *Dense {
	n := mustElems(shape)
	return &Dense{
		name:    name,
		shape:   append([]int(nil), shape...),
		strides: rowMajorStrides(shape),
		data:    make([]float64, n),
	}
}

// FromData wraps an existing row-major backing slice as a dense tensor
// without copying: len(data) must equal the product of shape. It is the
// zero-copy construction path of streaming decoders (internal/wire), which
// fill the slice incrementally and hand it over once complete. The caller
// must not use data through any other reference afterwards.
func FromData(name string, data []float64, shape ...int) *Dense {
	if n := mustElems(shape); len(data) != n {
		panic(fmt.Sprintf("tensor %s: %d values for shape %v (want %d)", name, len(data), slices.Clone(shape), n))
	}
	return &Dense{
		name:    name,
		shape:   append([]int(nil), shape...),
		strides: rowMajorStrides(shape),
		data:    data,
	}
}

func rowMajorStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for d := len(shape) - 1; d >= 0; d-- {
		strides[d] = acc
		acc *= shape[d]
	}
	return strides
}

// Name returns the tensor's name (used in notation and diagnostics).
func (t *Dense) Name() string { return t.name }

// Rename sets the tensor's name in place and returns the tensor. The wire
// codec decodes payloads without names (names travel in the request/response
// envelope, not the tensor frames), so receivers rename before binding.
func (t *Dense) Rename(name string) *Dense {
	t.name = name
	return t
}

// Rank returns the number of dimensions.
func (t *Dense) Rank() int { return len(t.shape) }

// Shape returns the tensor's dimensions. The caller must not mutate it.
func (t *Dense) Shape() []int { return t.shape }

// Size returns the total number of elements.
func (t *Dense) Size() int { return len(t.data) }

// Bytes returns the in-memory size of the tensor's payload in bytes.
func (t *Dense) Bytes() int64 { return int64(len(t.data)) * 8 }

// Data exposes the backing slice in row-major order.
func (t *Dense) Data() []float64 { return t.data }

// Strides returns the row-major strides of each dimension: the linear offset
// of coordinate p is the dot product of p and the strides. The caller must
// not mutate the returned slice. Together with Data it gives compiled leaf
// kernels a bounds-check-free addressing path.
func (t *Dense) Strides() []int { return t.strides }

// Offset returns the row-major linear offset of the coordinate p.
func (t *Dense) Offset(p []int) int {
	if len(p) != len(t.shape) {
		panic(fmt.Sprintf("tensor %s: coordinate rank %d != tensor rank %d", t.name, len(p), len(t.shape)))
	}
	off := 0
	for d, x := range p {
		if x < 0 || x >= t.shape[d] {
			panic(fmt.Sprintf("tensor %s: coordinate %v out of bounds for shape %v", t.name, p, t.shape))
		}
		off += x * t.strides[d]
	}
	return off
}

// At returns the value at coordinate p.
func (t *Dense) At(p ...int) float64 { return t.data[t.Offset(p)] }

// Set stores v at coordinate p.
func (t *Dense) Set(v float64, p ...int) { t.data[t.Offset(p)] = v }

// Add accumulates v into coordinate p.
func (t *Dense) Add(v float64, p ...int) { t.data[t.Offset(p)] += v }

// Fill sets every element to v.
func (t *Dense) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// FillRandom fills the tensor with deterministic pseudo-random values in
// [0, 1) derived from seed.
func (t *Dense) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range t.data {
		t.data[i] = rng.Float64()
	}
}

// FillFunc sets each element to f(p) where p is the element's coordinate.
func (t *Dense) FillFunc(f func(p []int) float64) {
	FullRect(t.shape).Points(func(p []int) {
		t.data[t.Offset(p)] = f(p)
	})
}

// Clone returns a deep copy, optionally renamed (empty name keeps the old).
func (t *Dense) Clone(name string) *Dense {
	if name == "" {
		name = t.name
	}
	out := New(name, t.shape...)
	copy(out.data, t.data)
	return out
}

// Zero resets all elements to zero.
func (t *Dense) Zero() { t.Fill(0) }

// Rect returns the full rect of the tensor.
func (t *Dense) Rect() Rect { return FullRect(t.shape) }

// CopyRect copies the contents of rect r from src into the same coordinates
// of t. Both tensors must have equal rank and contain r.
func (t *Dense) CopyRect(src *Dense, r Rect) {
	r = r.Clamp(t.shape).Clamp(src.shape)
	r.Points(func(p []int) {
		t.data[t.Offset(p)] = src.data[src.Offset(p)]
	})
}

// FoldRect combines src — a tensor holding exactly the contents of rect r,
// addressed from r's origin (shape = r's extents) — into the coordinates of r
// in t: added when add is set, stored otherwise. Elements combine in r's
// row-major order, a row of the innermost dimension at a time, so the result
// is what Add or Set per point of r.Points would produce.
func (t *Dense) FoldRect(src *Dense, r Rect, add bool) {
	rank := r.Rank()
	ok := rank == len(t.shape) && rank == len(src.shape)
	for d := 0; ok && d < rank; d++ {
		ok = r.Lo[d] >= 0 && r.Hi[d] <= t.shape[d] && src.shape[d] == r.Extent(d)
	}
	if !ok {
		panic(fmt.Sprintf("tensor %s: cannot fold %s from shape %v into shape %v", t.name, r, src.shape, t.shape))
	}
	if r.Empty() {
		return
	}
	last := rank - 1
	n := r.Extent(last)
	p := append([]int(nil), r.Lo...)
	for so := 0; so < len(src.data); so += n {
		do := 0
		for d, x := range p {
			do += x * t.strides[d]
		}
		dst, row := t.data[do:do+n], src.data[so:so+n]
		if add {
			for i, v := range row {
				dst[i] += v
			}
		} else {
			copy(dst, row)
		}
		for d := last - 1; d >= 0; d-- {
			if p[d]++; p[d] < r.Hi[d] {
				break
			}
			p[d] = r.Lo[d]
		}
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference between two
// tensors of identical shape.
func (t *Dense) MaxAbsDiff(other *Dense) float64 {
	if !sameShape(t.shape, other.shape) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", t.shape, other.shape))
	}
	maxd := 0.0
	for i := range t.data {
		d := math.Abs(t.data[i] - other.data[i])
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// EqualWithin reports whether the two tensors agree element-wise within eps.
func (t *Dense) EqualWithin(other *Dense, eps float64) bool {
	return sameShape(t.shape, other.shape) && t.MaxAbsDiff(other) <= eps
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Sum returns the sum of all elements.
func (t *Dense) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// String summarizes the tensor without printing its payload.
func (t *Dense) String() string {
	return fmt.Sprintf("%s%v", t.name, t.shape)
}
