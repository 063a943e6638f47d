package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	m := New("A", 3, 4)
	if m.Rank() != 2 || m.Size() != 12 {
		t.Fatalf("rank/size = %d/%d, want 2/12", m.Rank(), m.Size())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestScalarTensor(t *testing.T) {
	s := New("a")
	if s.Size() != 1 {
		t.Fatalf("scalar size = %d, want 1", s.Size())
	}
	s.Set(4.5)
	if got := s.At(); got != 4.5 {
		t.Fatalf("At() = %v, want 4.5", got)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New("A", 2, 3, 4)
	want := map[[3]int]float64{}
	k := 0.0
	FullRect(m.Shape()).Points(func(p []int) {
		m.Set(k, p...)
		want[[3]int{p[0], p[1], p[2]}] = k
		k++
	})
	for p, v := range want {
		if got := m.At(p[0], p[1], p[2]); got != v {
			t.Fatalf("At(%v) = %v, want %v", p, got, v)
		}
	}
}

func TestRowMajorLayout(t *testing.T) {
	m := New("A", 2, 3)
	m.Set(7, 1, 2)
	if m.Data()[1*3+2] != 7 {
		t.Fatal("expected row-major layout")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds access")
		}
	}()
	New("A", 2, 2).At(2, 0)
}

func TestAddAccumulates(t *testing.T) {
	m := New("A", 2)
	m.Add(1.5, 1)
	m.Add(2.5, 1)
	if m.At(1) != 4 {
		t.Fatalf("At(1) = %v, want 4", m.At(1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New("A", 2, 2)
	a.Set(1, 0, 0)
	b := a.Clone("B")
	b.Set(9, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if b.Name() != "B" {
		t.Fatalf("clone name = %q, want B", b.Name())
	}
}

func TestEqualWithin(t *testing.T) {
	a := New("A", 3)
	b := New("B", 3)
	b.Set(1e-12, 2)
	if !a.EqualWithin(b, 1e-9) {
		t.Fatal("tensors should be equal within 1e-9")
	}
	if a.EqualWithin(b, 1e-15) {
		t.Fatal("tensors should differ at 1e-15")
	}
	c := New("C", 4)
	if a.EqualWithin(c, 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := New("A", 10)
	b := New("B", 10)
	a.FillRandom(42)
	b.FillRandom(42)
	if !a.EqualWithin(b, 0) {
		t.Fatal("same seed must produce same data")
	}
	b.FillRandom(43)
	if a.EqualWithin(b, 0) {
		t.Fatal("different seeds should produce different data")
	}
}

func TestRectVolumeAndEmpty(t *testing.T) {
	r := NewRect([]int{0, 2}, []int{3, 5})
	if r.Volume() != 9 {
		t.Fatalf("volume = %d, want 9", r.Volume())
	}
	if r.Empty() {
		t.Fatal("rect should not be empty")
	}
	e := NewRect([]int{2, 2}, []int{2, 5})
	if !e.Empty() || e.Volume() != 0 {
		t.Fatal("rect with zero extent should be empty")
	}
}

// Intersect returns the intersection of two rects of equal rank: the
// tests' oracle for Overlaps, itself checked pointwise by
// TestRectIntersectProperty.
func (r Rect) Intersect(other Rect) Rect {
	if r.Rank() != other.Rank() {
		panic(fmt.Sprintf("tensor: intersect rank mismatch: %d vs %d", r.Rank(), other.Rank()))
	}
	out := NewRect(r.Lo, r.Hi)
	for d := range out.Lo {
		if other.Lo[d] > out.Lo[d] {
			out.Lo[d] = other.Lo[d]
		}
		if other.Hi[d] < out.Hi[d] {
			out.Hi[d] = other.Hi[d]
		}
	}
	return out
}

func TestRectIntersect(t *testing.T) {
	a := NewRect([]int{0, 0}, []int{4, 4})
	b := NewRect([]int{2, 3}, []int{6, 8})
	got := a.Intersect(b)
	want := NewRect([]int{2, 3}, []int{4, 4})
	if !got.Equal(want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if !a.Overlaps(b) {
		t.Fatal("rects should overlap")
	}
	c := NewRect([]int{4, 0}, []int{5, 4})
	if a.Overlaps(c) {
		t.Fatal("adjacent rects must not overlap")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect([]int{1, 1}, []int{3, 3})
	if !r.Contains([]int{1, 2}) || r.Contains([]int{3, 2}) || r.Contains([]int{0, 0}) {
		t.Fatal("Contains gave wrong answers")
	}
	if !r.ContainsRect(NewRect([]int{1, 1}, []int{2, 3})) {
		t.Fatal("expected containment")
	}
	if r.ContainsRect(NewRect([]int{0, 1}, []int{2, 3})) {
		t.Fatal("expected non-containment")
	}
}

func TestRectPointsOrder(t *testing.T) {
	r := NewRect([]int{0, 1}, []int{2, 3})
	var got [][2]int
	r.Points(func(p []int) { got = append(got, [2]int{p[0], p[1]}) })
	want := [][2]int{{0, 1}, {0, 2}, {1, 1}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("points = %v, want %v", got, want)
		}
	}
}

func TestRectString(t *testing.T) {
	r := NewRect([]int{0, 2}, []int{3, 5})
	if r.String() != "[0,3)x[2,5)" {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestBlockRangeCoversExactly(t *testing.T) {
	// Property: for any n >= 0 and count >= 1, the block ranges tile [0, n)
	// without gaps or overlaps.
	f := func(n8 uint8, c8 uint8) bool {
		n := int(n8)
		count := int(c8)%16 + 1
		covered := 0
		prevHi := 0
		for i := 0; i < count; i++ {
			lo, hi := BlockRange(n, count, i)
			if lo != prevHi && !(lo >= n && hi == lo) {
				if lo != prevHi {
					return false
				}
			}
			if hi < lo {
				return false
			}
			covered += hi - lo
			if hi > prevHi {
				prevHi = hi
			}
		}
		return covered == n && prevHi == n || (n == 0 && covered == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangeKnown(t *testing.T) {
	// 10 elements over 3 blocks of ceil(10/3)=4: [0,4) [4,8) [8,10).
	cases := []struct{ i, lo, hi int }{{0, 0, 4}, {1, 4, 8}, {2, 8, 10}}
	for _, c := range cases {
		lo, hi := BlockRange(10, 3, c.i)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("BlockRange(10,3,%d) = [%d,%d), want [%d,%d)", c.i, lo, hi, c.lo, c.hi)
		}
	}
}

func TestRectIntersectProperty(t *testing.T) {
	// Property: a point is in Intersect(a,b) iff it is in both a and b.
	f := func(alo, ahi, blo, bhi, px, py int8) bool {
		a := NewRect([]int{int(alo), int(alo)}, []int{int(ahi), int(ahi)})
		b := NewRect([]int{int(blo), int(blo)}, []int{int(bhi), int(bhi)})
		p := []int{int(px), int(py)}
		in := a.Intersect(b)
		return in.Contains(p) == (a.Contains(p) && b.Contains(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := New("A", 2)
	b := New("B", 2)
	a.Set(1, 0)
	b.Set(3, 0)
	if d := a.MaxAbsDiff(b); math.Abs(d-2) > 1e-15 {
		t.Fatalf("MaxAbsDiff = %v, want 2", d)
	}
}

func TestSum(t *testing.T) {
	a := New("A", 3)
	a.Fill(2)
	if a.Sum() != 6 {
		t.Fatalf("Sum = %v, want 6", a.Sum())
	}
}

func TestRectOverlapsMatchesIntersect(t *testing.T) {
	// Property: Overlaps is !Intersect(...).Empty() for every pair, empty
	// and inverted rects included, and it allocates nothing.
	f := func(alo, ahi, blo, bhi [3]int8) bool {
		mk := func(lo, hi [3]int8) Rect {
			return NewRect([]int{int(lo[0]), int(lo[1]), int(lo[2])}, []int{int(hi[0]), int(hi[1]), int(hi[2])})
		}
		a, b := mk(alo, ahi), mk(blo, bhi)
		return a.Overlaps(b) == !a.Intersect(b).Empty() && b.Overlaps(a) == a.Overlaps(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if (Rect{}).Overlaps(Rect{}) {
		t.Fatal("rank-0 rects are empty and must not overlap")
	}
	a := NewRect([]int{0, 0}, []int{4, 4})
	b := NewRect([]int{2, 3}, []int{6, 8})
	if n := testing.AllocsPerRun(100, func() { a.Overlaps(b) }); n != 0 {
		t.Fatalf("Overlaps allocates %v times per call", n)
	}
}

func TestFoldRect(t *testing.T) {
	// FoldRect must equal Add/Set per point of the rect, for any rank.
	for _, c := range []struct {
		shape  []int
		lo, hi []int
	}{
		{[]int{7}, []int{2}, []int{6}},
		{[]int{5, 6}, []int{1, 2}, []int{4, 6}},
		{[]int{4, 5, 6}, []int{1, 0, 3}, []int{3, 5, 5}},
		{[]int{4, 5}, []int{2, 2}, []int{2, 4}}, // empty
	} {
		r := NewRect(c.lo, c.hi)
		ext := make([]int, r.Rank())
		for d := range ext {
			ext[d] = r.Extent(d)
		}
		src := New("S", ext...)
		src.FillRandom(3)
		for _, add := range []bool{true, false} {
			got, want := New("T", c.shape...), New("T", c.shape...)
			got.FillRandom(4)
			want.FillRandom(4)
			got.FoldRect(src, r, add)
			r.Points(func(p []int) {
				q := make([]int, len(p))
				for d := range p {
					q[d] = p[d] - r.Lo[d]
				}
				if add {
					want.Add(src.At(q...), p...)
				} else {
					want.Set(src.At(q...), p...)
				}
			})
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("shape %v rect %v add=%v: element %d = %v, want %v", c.shape, r, add, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

// TestElems: the element count is exact where it fits an int and an error
// where the shape is negative or its product would wrap.
func TestElems(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
		ok    bool
	}{
		{nil, 1, true},
		{[]int{3, 4}, 12, true},
		{[]int{1 << 40, 0}, 0, true},
		{[]int{1 << 31, 1 << 31}, 1 << 62, true},
		{[]int{1 << 33, 1 << 33}, 0, false}, // 2^66 would wrap to 0
		{[]int{math.MaxInt, 2}, 0, false},
		{[]int{2, -1}, 0, false},
	}
	for _, c := range cases {
		got, err := Elems(c.shape)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Elems(%v) = %d, %v; want %d, ok=%v", c.shape, got, err, c.want, c.ok)
		}
	}
}
