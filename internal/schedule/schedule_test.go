package schedule

import (
	"testing"

	"distal/internal/ir"
)

func gemm() *ir.Assignment {
	return ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
}

func TestDefaultOrder(t *testing.T) {
	s := New(gemm())
	got := s.Order()
	want := []string{"i", "j", "k"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestDivideReplacesInOrder(t *testing.T) {
	s := New(gemm()).Divide("i", "io", "ii", 4)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	want := []string{"io", "ii", "j", "k"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if v := s.Var("io"); v.Kind != DivideOuter || v.Origin != "i" || v.Param != 4 {
		t.Fatalf("io var = %+v", v)
	}
}

func TestDivideErrors(t *testing.T) {
	if New(gemm()).Divide("z", "a", "b", 2).Err() == nil {
		t.Fatal("divide of unknown var should fail")
	}
	if New(gemm()).Divide("i", "j", "x", 2).Err() == nil {
		t.Fatal("divide onto existing name should fail")
	}
	if New(gemm()).Divide("i", "a", "b", 0).Err() == nil {
		t.Fatal("divide count 0 should fail")
	}
	if New(gemm()).Divide("i", "a", "b", 2).Divide("i", "c", "d", 2).Err() == nil {
		t.Fatal("double divide of same var should fail")
	}
}

func TestReorderPartial(t *testing.T) {
	// Fig 2 line: divide i and j, then reorder({io, jo, ii, ji}) with k
	// staying in place at the end.
	s := New(gemm()).
		Divide("i", "io", "ii", 2).
		Divide("j", "jo", "ji", 2).
		Reorder("io", "jo", "ii", "ji")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	want := []string{"io", "jo", "ii", "ji", "k"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestReorderErrors(t *testing.T) {
	if New(gemm()).Reorder("i", "z").Err() == nil {
		t.Fatal("reorder with unknown var should fail")
	}
	if New(gemm()).Reorder("i", "i").Err() == nil {
		t.Fatal("reorder with duplicate should fail")
	}
}

func TestDistributePrefix(t *testing.T) {
	s := New(gemm()).
		Divide("i", "io", "ii", 2).
		Divide("j", "jo", "ji", 2).
		Reorder("io", "jo", "ii", "ji").
		Distribute("io", "jo")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	d := s.Distributed()
	if len(d) != 2 || d[0] != "io" || d[1] != "jo" {
		t.Fatalf("distributed = %v", d)
	}
}

func TestDistributeNonPrefixFails(t *testing.T) {
	s := New(gemm()).Distribute("j")
	if s.Err() == nil {
		t.Fatal("distributing a non-outermost loop should fail")
	}
}

func TestSUMMASchedule(t *testing.T) {
	// The full SUMMA schedule of Fig 9.
	s := New(gemm()).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
		Split("k", "ko", "ki", 256).
		Reorder("ko", "ii", "ji", "ki").
		Communicate("jo", "A").
		Communicate("ko", "B", "C")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	want := []string{"io", "jo", "ko", "ii", "ji", "ki"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.CommAnchor("B") != "ko" || s.CommAnchor("A") != "jo" {
		t.Fatal("communicate anchors wrong")
	}
}

func TestCannonScheduleWithRotate(t *testing.T) {
	s := New(gemm()).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{3, 3}).
		Divide("k", "ko", "ki", 3).
		Reorder("ko", "ii", "ji", "ki").
		Rotate("ko", []string{"io", "jo"}, "kos").
		Communicate("jo", "A").
		Communicate("kos", "B", "C")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	want := []string{"io", "jo", "kos", "ii", "ji", "ki"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	v := s.Var("kos")
	if v.Kind != Rotated || v.Origin != "ko" || len(v.RotateOffsets) != 2 {
		t.Fatalf("kos = %+v", v)
	}
}

func TestRotateErrors(t *testing.T) {
	if New(gemm()).Rotate("k", []string{"z"}, "ks").Err() == nil {
		t.Fatal("rotate with unknown offset should fail")
	}
	// Offset must be outside (before) the target.
	if New(gemm()).Rotate("i", []string{"k"}, "is").Err() == nil {
		t.Fatal("rotate with inner offset should fail")
	}
}

func TestCommunicateUnknownTensor(t *testing.T) {
	if New(gemm()).Communicate("i", "Z").Err() == nil {
		t.Fatal("communicate of unknown tensor should fail")
	}
}

func TestCollapse(t *testing.T) {
	s := New(gemm()).Collapse("i", "j", "f")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	want := []string{"f", "k"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if New(gemm()).Collapse("i", "k", "f").Err() == nil {
		t.Fatal("collapse of non-nested loops should fail")
	}
}

// TestSubstitute: substitute leaves the loop nest alone, so its only trace
// is the command log. The command reaches String(), the text every plan
// key hashes, and the notation is the unscheduled statement's. Illegal uses
// still fail.
func TestSubstitute(t *testing.T) {
	s := New(gemm()).Substitute([]string{"j", "k"}, "BLAS.GEMM")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "substitute(j,k,BLAS.GEMM)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := s.Notation(), New(gemm()).Notation(); got != want {
		t.Fatalf("Notation() = %q, want the unscheduled %q", got, want)
	}
	for name, bad := range map[string]*Schedule{
		"not innermost": New(gemm()).Substitute([]string{"i", "j"}, "X"),
		"no variables":  New(gemm()).Substitute(nil, "X"),
		"too many":      New(gemm()).Substitute([]string{"i", "j", "k", "l"}, "X"),
		"bad kernel":    New(gemm()).Substitute([]string{"k"}, "BLAS GEMM"),
	} {
		if bad.Err() == nil {
			t.Errorf("%s: substitute should fail", name)
		}
		if bad.String() != "" {
			t.Errorf("%s: a failed substitute was recorded: %q", name, bad.String())
		}
	}
}

// TestParallelize: parallelize, like substitute, is validated and recorded
// in the command log (and so in the plan key) without changing the loop
// nest. Illegal uses still fail.
func TestParallelize(t *testing.T) {
	s := New(gemm()).Parallelize("i")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "parallelize(i)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := s.Notation(), New(gemm()).Notation(); got != want {
		t.Fatalf("Notation() = %q, want the unscheduled %q", got, want)
	}
	for name, bad := range map[string]*Schedule{
		"unknown":     New(gemm()).Parallelize("z"),
		"transformed": New(gemm()).Divide("i", "io", "ii", 2).Parallelize("i"),
	} {
		if bad.Err() == nil {
			t.Errorf("%s: parallelize should fail", name)
		}
	}
}

func TestStickyError(t *testing.T) {
	s := New(gemm()).Divide("z", "a", "b", 2).Split("k", "ko", "ki", 4)
	if s.Err() == nil {
		t.Fatal("expected sticky error")
	}
	if s.Var("ko") != nil {
		t.Fatal("commands after an error must be no-ops")
	}
}

func TestExtents(t *testing.T) {
	s := New(gemm()).
		Divide("i", "io", "ii", 4).
		Split("k", "ko", "ki", 16)
	ext, err := s.Extents(map[string]int{"i": 100, "j": 8, "k": 50})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{
		"i": 100, "j": 8, "k": 50,
		"io": 4, "ii": 25, // ceil(100/4)
		"ko": 4, "ki": 16, // ceil(50/16) = 4
	}
	for name, want := range cases {
		if ext[name] != want {
			t.Fatalf("extent(%s) = %d, want %d", name, ext[name], want)
		}
	}
}

func TestExtentsRotatedAndFused(t *testing.T) {
	s := New(gemm()).
		Divide("k", "ko", "ki", 5).
		Rotate("ko", []string{"i"}, "kos").
		Collapse("i", "j", "f")
	ext, err := s.Extents(map[string]int{"i": 3, "j": 4, "k": 10})
	if err != nil {
		t.Fatal(err)
	}
	if ext["kos"] != 5 || ext["f"] != 12 {
		t.Fatalf("extents = %v", ext)
	}
}

func TestIntervalsDivide(t *testing.T) {
	s := New(gemm()).Divide("i", "io", "ii", 4)
	ext, _ := s.Extents(map[string]int{"i": 100, "j": 8, "k": 50})
	ev := evalByName(s, ext)
	// io fixed to 2, ii free: i in [50, 75).
	ivs := ev.intervals(map[string]int{"io": 2})
	if ivs["i"] != (Interval{50, 75}) {
		t.Fatalf("i interval = %v", ivs["i"])
	}
	// Nothing fixed: full ranges.
	ivs = ev.intervals(map[string]int{})
	if ivs["i"] != (Interval{0, 100}) || ivs["k"] != (Interval{0, 50}) {
		t.Fatalf("ivs = %v", ivs)
	}
}

func TestIntervalsClampLastBlock(t *testing.T) {
	s := New(gemm()).Divide("i", "io", "ii", 3)
	ext, _ := s.Extents(map[string]int{"i": 10, "j": 2, "k": 2})
	// Block size ceil(10/3)=4; io=2 covers [8,12) clamped to [8,10).
	ivs := evalByName(s, ext).intervals(map[string]int{"io": 2})
	if ivs["i"] != (Interval{8, 10}) {
		t.Fatalf("i interval = %v", ivs["i"])
	}
}

func TestIntervalsSplitFixedBoth(t *testing.T) {
	s := New(gemm()).Split("k", "ko", "ki", 16)
	ext, _ := s.Extents(map[string]int{"i": 2, "j": 2, "k": 50})
	ivs := evalByName(s, ext).intervals(map[string]int{"ko": 1, "ki": 3})
	if ivs["k"] != (Interval{19, 20}) {
		t.Fatalf("k interval = %v", ivs["k"])
	}
}

func TestIntervalsRotation(t *testing.T) {
	// Cannon-style: k divided by 3, rotated by io and jo.
	s := New(gemm()).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{3, 3}).
		Divide("k", "ko", "ki", 3).
		Reorder("ko", "ii", "ji", "ki").
		Rotate("ko", []string{"io", "jo"}, "kos")
	ext, _ := s.Extents(map[string]int{"i": 9, "j": 9, "k": 9})
	ev := evalByName(s, ext)
	// kos=0, io=1, jo=2: ko = (0+1+2) mod 3 = 0; k in [0,3).
	ivs := ev.intervals(map[string]int{"kos": 0, "io": 1, "jo": 2})
	if ivs["k"] != (Interval{0, 3}) {
		t.Fatalf("k interval = %v", ivs["k"])
	}
	// kos=2, io=2, jo=2: ko = 6 mod 3 = 0 -> k in [0,3).
	ivs = ev.intervals(map[string]int{"kos": 2, "io": 2, "jo": 2})
	if ivs["k"] != (Interval{0, 3}) {
		t.Fatalf("k interval = %v", ivs["k"])
	}
	// kos=1, io=0, jo=0: ko = 1 -> k in [3,6).
	ivs = ev.intervals(map[string]int{"kos": 1, "io": 0, "jo": 0})
	if ivs["k"] != (Interval{3, 6}) {
		t.Fatalf("k interval = %v", ivs["k"])
	}
	// Rotation with unfixed offsets: full range.
	ivs = ev.intervals(map[string]int{"kos": 1})
	if ivs["k"] != (Interval{0, 9}) {
		t.Fatalf("k interval = %v", ivs["k"])
	}
}

func TestValueReconstruction(t *testing.T) {
	s := New(gemm()).
		Divide("i", "io", "ii", 3).
		Split("k", "ko", "ki", 4)
	ext, _ := s.Extents(map[string]int{"i": 10, "j": 5, "k": 10})
	env := map[string]int{"io": 1, "ii": 2, "j": 3, "ko": 2, "ki": 1}
	ev := evalByName(s, ext)
	vals, ok := ev.value(env)
	if !ok {
		t.Fatal("value should be in bounds")
	}
	if vals["i"] != 6 || vals["j"] != 3 || vals["k"] != 9 {
		t.Fatalf("vals = %v", vals)
	}
	// Out of bounds: io=2, ii=3 -> i = 11 >= 10.
	if _, ok := ev.value(map[string]int{"io": 2, "ii": 3, "j": 0, "ko": 0, "ki": 0}); ok {
		t.Fatal("out-of-extent value should report false")
	}
}

func TestValueFused(t *testing.T) {
	s := New(gemm()).Collapse("i", "j", "f")
	ext, _ := s.Extents(map[string]int{"i": 3, "j": 4, "k": 2})
	vals, ok := evalByName(s, ext).value(map[string]int{"f": 7, "k": 1})
	if !ok || vals["i"] != 1 || vals["j"] != 3 {
		t.Fatalf("vals = %v ok=%v", vals, ok)
	}
}

func TestScheduleString(t *testing.T) {
	s := New(gemm()).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{2, 2}).
		Communicate("jo", "A")
	got := s.String()
	if got == "" || s.Err() != nil {
		t.Fatalf("String() = %q err=%v", got, s.Err())
	}
}
