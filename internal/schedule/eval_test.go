package schedule

import (
	"fmt"
	"testing"

	"distal/internal/ir"
)

// byName is the tests' name-keyed view of a compiled Evaluator:
// environments and results are maps keyed by variable name, the way
// bounds-analysis examples read. Each call allocates fresh scratch.
type byName struct{ ev *Evaluator }

func evalByName(s *Schedule, ext map[string]int) byName {
	return byName{ev: s.CompileEvaluator(ext)}
}

// env fixes the named variables; names the evaluator does not know are
// ignored.
func (b byName) env(env map[string]int) (fixed []bool, vals []int) {
	n := b.ev.NumVars()
	fixed, vals = make([]bool, n), make([]int, n)
	for name, x := range env {
		if id := b.ev.VarID(name); id >= 0 {
			fixed[id], vals[id] = true, x
		}
	}
	return fixed, vals
}

// intervals is Eval: the value interval of every original statement
// variable with env fixed and every other loop variable spanning its
// extent.
func (b byName) intervals(env map[string]int) map[string]Interval {
	fixed, vals := b.env(env)
	out := make([]Interval, b.ev.NumVars())
	b.ev.Eval(fixed, vals, out)
	ivs := map[string]Interval{}
	for _, id := range b.ev.OrigIDs() {
		ivs[b.ev.VarName(int(id))] = out[id]
	}
	return ivs
}

// value is ValueInto: the value of every original statement variable under
// a full assignment env of the loop-order variables, false when one falls
// outside its extent.
func (b byName) value(env map[string]int) (map[string]int, bool) {
	fixed, vals := b.env(env)
	orig := make([]int, len(b.ev.OrigIDs()))
	if !b.ev.ValueInto(fixed, vals, make([]Interval, b.ev.NumVars()), orig) {
		return nil, false
	}
	out := map[string]int{}
	for i, id := range b.ev.OrigIDs() {
		out[b.ev.VarName(int(id))] = orig[i]
	}
	return out, true
}

func chainSchedule(t *testing.T) (*Schedule, map[string]int) {
	t.Helper()
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	s := New(stmt).
		Divide("i", "io", "ii", 4).
		Split("ii", "iio", "iii", 2).
		Divide("j", "jo", "ji", 4).
		Divide("k", "ko", "ki", 4).
		Reorder("io", "jo", "ko", "iio", "iii", "ji", "ki").
		Distribute("io", "jo", "ko").
		Rotate("ko", []string{"io", "jo"}, "kos")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	ext, err := s.Extents(map[string]int{"i": 32, "j": 16, "k": 64})
	if err != nil {
		t.Fatal(err)
	}
	return s, ext
}

// TestEvaluatorChainReconstruction: a variable divided and then split must
// be reconstructed through the whole derivation chain.
func TestEvaluatorChainReconstruction(t *testing.T) {
	s, ext := chainSchedule(t)
	// io=1 fixes i's block [8,16); iio=3, iii free (extent 2) fixes
	// ii in [6,8), so i = 8*1 + [6,8) = [14,16).
	ev := evalByName(s, ext)
	ivs := ev.intervals(map[string]int{"io": 1, "iio": 3})
	if got := ivs["i"]; got != (Interval{Lo: 14, Hi: 16}) {
		t.Fatalf("i interval = %+v, want [14,16)", got)
	}
	// Rotation with fixed offsets is exact: k block is (kos+io+jo) mod 4.
	ivs = ev.intervals(map[string]int{"kos": 1, "io": 2, "jo": 3})
	want := Interval{Lo: ((1 + 2 + 3) % 4) * 16, Hi: ((1+2+3)%4)*16 + 16}
	if got := ivs["k"]; got != want {
		t.Fatalf("k interval = %+v, want %+v", got, want)
	}
}

// TestEvaluatorAllocationFree: the compiled evaluator must not allocate per
// evaluation — that is its reason to exist.
func TestEvaluatorAllocationFree(t *testing.T) {
	s, ext := chainSchedule(t)
	ev := s.CompileEvaluator(ext)
	n := ev.NumVars()
	fixed := make([]bool, n)
	vals := make([]int, n)
	out := make([]Interval, n)
	for i, name := range []string{"io", "jo", "kos"} {
		id := ev.VarID(name)
		if id < 0 {
			t.Fatalf("no id for %s", name)
		}
		fixed[id] = true
		vals[id] = i
	}
	if allocs := testing.AllocsPerRun(200, func() { ev.Eval(fixed, vals, out) }); allocs != 0 {
		t.Fatalf("Eval allocated %.1f objects per run, want 0", allocs)
	}
}

// TestEvaluatorMatchesShim: the tests' name-keyed view (byName) and a
// direct slice evaluation must agree for every original variable — the
// other tests assert through that view.
func TestEvaluatorMatchesShim(t *testing.T) {
	s, ext := chainSchedule(t)
	env := map[string]int{"io": 2, "jo": 1, "kos": 3, "iio": 0}
	ivs := evalByName(s, ext).intervals(env)

	ev := s.CompileEvaluator(ext)
	n := ev.NumVars()
	fixed := make([]bool, n)
	vals := make([]int, n)
	out := make([]Interval, n)
	for k, v := range env {
		fixed[ev.VarID(k)] = true
		vals[ev.VarID(k)] = v
	}
	ev.Eval(fixed, vals, out)
	for _, id := range ev.OrigIDs() {
		name := ev.VarName(int(id))
		if out[id] != ivs[name] {
			t.Fatalf("%s: direct %+v vs shim %+v", name, out[id], ivs[name])
		}
	}
}

// TestEvaluatorValueInto: full assignments reconstruct exact original
// values and reject ragged points.
func TestEvaluatorValueInto(t *testing.T) {
	stmt := ir.MustParse("A(i) = B(i)")
	s := New(stmt).Divide("i", "io", "ii", 4)
	ext, err := s.Extents(map[string]int{"i": 10}) // blocks of 3: last block ragged
	if err != nil {
		t.Fatal(err)
	}
	ev := s.CompileEvaluator(ext)
	n := ev.NumVars()
	fixed := make([]bool, n)
	vals := make([]int, n)
	scratch := make([]Interval, n)
	orig := make([]int, len(ev.OrigIDs()))
	set := func(name string, v int) {
		fixed[ev.VarID(name)] = true
		vals[ev.VarID(name)] = v
	}
	set("io", 2)
	set("ii", 1)
	if !ev.ValueInto(fixed, vals, scratch, orig) || orig[0] != 7 {
		t.Fatalf("io=2,ii=1: got %v, want i=7", orig)
	}
	set("io", 3)
	set("ii", 2)
	if ev.ValueInto(fixed, vals, scratch, orig) {
		t.Fatal("io=3,ii=2 is i=11, outside extent 10; want ragged rejection")
	}
}

// ValueInto is the tests' interval-domain value oracle, which ValueProgram
// is checked against: it computes the concrete value of every original
// statement variable from a full assignment (every loop-order variable
// fixed), writing them into origVals in stmt.Vars() order. It returns false
// if any original variable falls outside its extent (the ragged tail of a
// non-divisible block).
// scratch must have length NumVars; origVals length len(OrigIDs()).
func (ev *Evaluator) ValueInto(fixed []bool, vals []int, scratch []Interval, origVals []int) bool {
	ev.Eval(fixed, vals, scratch)
	for i, id := range ev.orig {
		iv := scratch[id]
		if iv.Hi <= iv.Lo {
			return false
		}
		if !iv.Fixed() {
			panic(fmt.Sprintf("schedule: variable %s not fixed by full assignment", ev.names[id]))
		}
		if iv.Lo < 0 || iv.Lo >= ev.extents[id] {
			return false
		}
		origVals[i] = iv.Lo
	}
	return true
}
