package schedule

import (
	"math"
	"slices"
	"testing"

	"distal/internal/ir"
)

// rowTestProgram builds the ragged, rotated Cannon-style schedule used by
// the value-program tests: every divide/split is non-divisible, so rows have
// ragged tails in several variables at once.
func rowTestProgram(t *testing.T) (*Schedule, *Evaluator, *ValueProgram, map[string]int) {
	t.Helper()
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	s := New(stmt).
		Divide("i", "io", "ii", 3). // 14/3 -> ragged blocks of 5
		Divide("j", "jo", "ji", 4).
		Split("k", "ko", "ki", 5). // 17/5 -> ragged tail
		Reorder("io", "jo", "ko", "ii", "ji", "ki").
		Distribute("io", "jo").
		Rotate("ko", []string{"io", "jo"}, "kos")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	ext, err := s.Extents(map[string]int{"i": 14, "j": 16, "k": 17})
	if err != nil {
		t.Fatal(err)
	}
	ev := s.CompileEvaluator(ext)
	return s, ev, ev.CompileValues(), ext
}

// blockCoverage counts what an exhaustive block check saw, so each test can
// insist it exercised the regimes it is about: boxes ragged in any
// dimension or in the plane dimension, empty blocks, blocks BlockRun
// rejected, and the planes of rejected blocks judged through Plane.
type blockCoverage struct {
	blocks, ragged, planeCut, empty, rejected int
	planes, planesRejected                    int
}

// unchecked returns a copy of vp without ragged checks: every divide/split
// extent is unbounded, so Run derives every op's value at any assignment.
func unchecked(vp *ValueProgram) *ValueProgram {
	u := &ValueProgram{ops: slices.Clone(vp.ops), orig: vp.orig, nv: vp.nv}
	for i := range u.ops {
		if u.ops[i].kind == valDivSplit {
			u.ops[i].ext = math.MaxInt32
		}
	}
	return u
}

// checkBlockPlan compares BlockRun against the per-point Run over every
// block of the schedule: every assignment of the loop-order variables other
// than the block variables vars (one, two or three, outermost first). For
// each block it derives BlockRun's verdict independently, from the unchecked
// op values at every point of the block — in op order, a check that fails at
// the origin empties the block, and a check whose value moves with two or
// more block variables and fails anywhere in the block rejects it — and
// requires BlockRun to agree. For each box BlockRun accepts it checks the two
// facts blocked kernels lean on: (1) the box is exact — a block point is in
// the iteration space if and only if it lies inside the box; (2) each
// original variable's value at block point q is its origin value plus
// q[d] times the dimension-d step. A rejected three-variable block is judged
// again plane by plane through the plan's Plane view, under the same checks.
func checkBlockPlan(t *testing.T, s *Schedule, ev *Evaluator, vp *ValueProgram, ext map[string]int, vars ...string) blockCoverage {
	t.Helper()
	ids, exts := make([]int, len(vars)), make([]int, len(vars))
	bids, bext := [3]int{-1, -1, -1}, [3]int{1, 1, 1}
	for i, name := range vars {
		ids[i], exts[i] = ev.VarID(name), ext[name]
		bids[3-len(vars)+i], bext[3-len(vars)+i] = ids[i], exts[i]
	}
	bp := vp.CompileBlock(ids, exts)
	if bp == nil {
		t.Fatalf("CompileBlock%v = nil; divide/split variables must be affine", vars)
	}
	plane := bp.Plane()
	free := unchecked(vp)

	var others, dims []int
	for _, name := range s.Order() {
		if !slices.Contains(vars, name) {
			others = append(others, ev.VarID(name))
			dims = append(dims, ext[name])
		}
	}
	nv, no, nops := ev.NumVars(), len(ev.OrigIDs()), len(vp.ops)
	vals, ref := make([]int, nv), make([]int, nv)
	origin, refOrig := make([]int, no), make([]int, no)
	asst := make([]int, len(others))
	// bind sets the other loop variables to asst and block dimension d to
	// base[d]+q[d] in v.
	bind := func(v []int, base, q [3]int) {
		for i, id := range others {
			v[id] = asst[i]
		}
		for d, id := range bids {
			if id >= 0 {
				v[id] = base[d] + q[d]
			}
		}
	}
	// each calls f at every point q of a block with extents pext.
	each := func(pext [3]int, f func(q [3]int)) {
		for w := 0; w < pext[0]; w++ {
			for u := 0; u < pext[1]; u++ {
				for v := 0; v < pext[2]; v++ {
					f([3]int{w, u, v})
				}
			}
		}
	}
	// judge runs BlockRun under plan p at the block whose origin is base,
	// with extents pext, and checks it against the derived verdict and, when
	// accepted, the per-point Run.
	judge := func(p *BlockPlan, base, pext [3]int) ([3]int, bool) {
		t.Helper()
		originVals := make([]int, nops)
		maxVals := make([]int, nops)
		moves := make([]int, nops)
		each(pext, func(q [3]int) {
			bind(ref, base, q)
			free.Run(ref, refOrig)
			unit := q[0]+q[1]+q[2] == 1
			for i := range vp.ops {
				v := ref[vp.ops[i].id]
				if q == ([3]int{}) {
					originVals[i], maxVals[i] = v, v
				}
				maxVals[i] = max(maxVals[i], v)
				if unit && v != originVals[i] {
					moves[i]++
				}
			}
		})
		wantOK, wantEmpty := true, false
		for i := range vp.ops {
			if op := &vp.ops[i]; op.kind == valDivSplit {
				if originVals[i] >= int(op.ext) {
					wantEmpty = true
					break
				}
				if moves[i] > 1 && maxVals[i] >= int(op.ext) {
					wantOK = false
					break
				}
			}
		}

		bind(vals, base, [3]int{})
		box, ok := vp.BlockRun(p, vals, origin)
		if ok != wantOK || (wantEmpty && box != [3]int{}) {
			t.Fatalf("block %v%v: BlockRun box=%v ok=%v, want ok=%v empty=%v", asst, base, box, ok, wantOK, wantEmpty)
		}
		for d := range box {
			if box[d] > pext[d] {
				t.Fatalf("block %v%v: box %v exceeds the loop extents %v", asst, base, box, pext)
			}
		}
		if !ok {
			return box, ok
		}
		each(pext, func(q [3]int) {
			bind(ref, base, q)
			in := vp.Run(ref, refOrig)
			if in != (q[0] < box[0] && q[1] < box[1] && q[2] < box[2]) {
				t.Fatalf("block %v%v point %v: Run in-bounds=%v but BlockRun box=%v", asst, base, q, in, box)
			}
			if !in {
				return
			}
			for i := range refOrig {
				want := origin[i]
				for d := range q {
					want += q[d] * p.Steps(d)[i]
				}
				if refOrig[i] != want {
					t.Fatalf("block %v%v point %v: orig[%d] = %d, stepped origin gives %d", asst, base, q, i, refOrig[i], want)
				}
			}
		})
		return box, ok
	}

	var cov blockCoverage
	for {
		box, ok := judge(bp, [3]int{}, bext)
		cov.blocks++
		switch {
		case !ok:
			cov.rejected++
		case box == [3]int{}:
			cov.empty++
		case box != bext:
			cov.ragged++
			if box[0] < bext[0] {
				cov.planeCut++
			}
		}
		for w := 0; !ok && bids[0] >= 0 && w < bext[0]; w++ {
			cov.planes++
			if _, pok := judge(&plane, [3]int{w, 0, 0}, [3]int{1, bext[1], bext[2]}); !pok {
				cov.planesRejected++
			}
		}
		d := len(asst) - 1
		for d >= 0 {
			asst[d]++
			if asst[d] < dims[d] {
				break
			}
			asst[d] = 0
			d--
		}
		if d < 0 {
			return cov
		}
	}
}

// TestRowPlanMatchesRun checks the height-1 block — one row along the
// innermost leaf variable — exhaustively over a ragged rotated schedule: the
// prefix count is exact and every original value steps by the plan's step.
func TestRowPlanMatchesRun(t *testing.T) {
	s, ev, vp, ext := rowTestProgram(t)
	order := s.Order()
	cov := checkBlockPlan(t, s, ev, vp, ext, order[len(order)-1]) // ki
	if cov.ragged == 0 || cov.ragged == cov.blocks || cov.rejected != 0 {
		t.Fatalf("degenerate coverage: %+v (want full and ragged rows, none rejected)", cov)
	}
}

// TestBlockPlanMatchesRun checks blocks of two and three variables the same
// way. The rotated schedule's leaf variables are separable (each ragged check
// bounds one block variable), so every block is an exact prefix box, ragged
// in one variable or in several — the plane variable included. The unrotated
// schedule adds the coupled cases, where two block variables are the outer
// and inner half of one divide: a divisible extent still gives a full box,
// and a ragged one must be rejected — judged again per plane when the
// coupled pair is the plane and outer variable, where each plane is a box,
// and handed on per point when it is the outer and inner one. Non-affine
// block variables are rejected outright.
func TestBlockPlanMatchesRun(t *testing.T) {
	s, ev, vp, ext := rowTestProgram(t)
	for _, vars := range [][]string{
		{"ji", "ki"}, {"ii", "ji"}, {"ii", "ki"}, {"ki", "ii"},
		{"ii", "ji", "ki"}, {"ki", "ii", "ji"}, {"ji", "ki", "ii"},
	} {
		cov := checkBlockPlan(t, s, ev, vp, ext, vars...)
		if cov.ragged == 0 || cov.ragged == cov.blocks || cov.rejected != 0 {
			t.Fatalf("%v: degenerate coverage %+v (want full and ragged boxes, none rejected)", vars, cov)
		}
		// ii and ki have ragged tails; ji divides evenly.
		if len(vars) == 3 && vars[0] != "ji" && cov.planeCut == 0 {
			t.Fatalf("%v: no box cut the plane variable: %+v", vars, cov)
		}
	}
	// A rotation source or offset as any block variable is not affine.
	for _, vars := range [][]string{
		{"kos", "ki"}, {"ji", "kos"}, {"io", "ii"}, {"ii", "jo"},
		{"kos", "ii", "ki"}, {"ii", "ji", "kos"}, {"io", "ji", "ki"}, {"ii", "jo", "ki"},
	} {
		ids, exts := make([]int, len(vars)), make([]int, len(vars))
		for i, name := range vars {
			ids[i], exts[i] = ev.VarID(name), ext[name]
		}
		if bp := vp.CompileBlock(ids, exts); bp != nil {
			t.Fatalf("CompileBlock%v accepted a rotation operand", vars)
		}
	}

	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	u := New(stmt).
		Divide("j", "jo", "ji", 4). // 16/4: divisible
		Split("k", "ko", "ki", 5).  // 17/5: ragged tail
		Reorder("i", "jo", "ko", "ji", "ki")
	if err := u.Err(); err != nil {
		t.Fatal(err)
	}
	uext, err := u.Extents(map[string]int{"i": 3, "j": 16, "k": 17})
	if err != nil {
		t.Fatal(err)
	}
	uev := u.CompileEvaluator(uext)
	uvp := uev.CompileValues()
	// (Blocks whose origin already fails k's ragged check are empty.)
	if cov := checkBlockPlan(t, u, uev, uvp, uext, "jo", "ji"); cov.rejected != 0 || cov.ragged != 0 || cov.empty == cov.blocks {
		t.Fatalf("coupled divisible pair: %+v (want every in-space block a full box)", cov)
	}
	if cov := checkBlockPlan(t, u, uev, uvp, uext, "ko", "ki"); cov.rejected != cov.blocks {
		t.Fatalf("coupled ragged pair: %+v (want every block rejected)", cov)
	}
	// The divisible coupled pair as plane and outer variable: full in j,
	// cut in ki.
	if cov := checkBlockPlan(t, u, uev, uvp, uext, "jo", "ji", "ki"); cov.rejected != 0 || cov.ragged == 0 {
		t.Fatalf("coupled divisible plane: %+v (want boxes ragged in ki, none rejected)", cov)
	}
	// ko, ki, ji: the ragged split couples plane and outer variable, so
	// every block is rejected and every plane is a box, cut in ki on the
	// last one.
	if cov := checkBlockPlan(t, u, uev, uvp, uext, "ko", "ki", "ji"); cov.rejected != cov.blocks || cov.planes == 0 || cov.planesRejected != 0 {
		t.Fatalf("coupled ragged plane: %+v (want every block rejected, every plane a box)", cov)
	}
	// ji, ko, ki: the coupled pair is the plane's own two variables, so the
	// planes are rejected too and the kernel walks them per point.
	if cov := checkBlockPlan(t, u, uev, uvp, uext, "ji", "ko", "ki"); cov.rejected != cov.blocks || cov.planesRejected != cov.planes || cov.planes == 0 {
		t.Fatalf("coupled ragged rows: %+v (want every block and every plane rejected)", cov)
	}
}

// TestCompileRowRejectsNonAffine pins the eligibility rule: a loop-order
// variable that feeds a rotation (as its source or as an offset) or a
// collapse reconstruction is not affine, so CompileBlock must refuse and the
// kernel must fall back to per-point evaluation.
func TestCompileRowRejectsNonAffine(t *testing.T) {
	_, ev, vp, ext := rowTestProgram(t)
	row := func(ev *Evaluator, vp *ValueProgram, ext map[string]int, name string) *BlockPlan {
		return vp.CompileBlock([]int{ev.VarID(name)}, []int{ext[name]})
	}
	// kos is the rotation's source: ko = (kos + io + jo) mod ext wraps.
	if row(ev, vp, ext, "kos") != nil {
		t.Fatal("CompileBlock(kos) accepted a rotation source")
	}
	// io and jo are rotation offsets: same wraparound.
	if row(ev, vp, ext, "io") != nil {
		t.Fatal("CompileBlock(io) accepted a rotation offset")
	}

	// A collapsed pair reconstructs through integer div/mod of the fused
	// variable: not affine either.
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	s := New(stmt).Collapse("i", "j", "f").Split("k", "ko", "ki", 2)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	fext, err := s.Extents(map[string]int{"i": 6, "j": 4, "k": 5})
	if err != nil {
		t.Fatal(err)
	}
	fev := s.CompileEvaluator(fext)
	fvp := fev.CompileValues()
	if row(fev, fvp, fext, "f") != nil {
		t.Fatal("CompileBlock(f) accepted a collapse source")
	}
	// k's halves are untouched by the collapse and stay affine, alone and
	// as the inner variables under the rejected f.
	if row(fev, fvp, fext, "ki") == nil {
		t.Fatal("CompileBlock(ki) rejected an affine variable")
	}
	block := func(vars ...string) *BlockPlan {
		ids, exts := make([]int, len(vars)), make([]int, len(vars))
		for i, name := range vars {
			ids[i], exts[i] = fev.VarID(name), fext[name]
		}
		return fvp.CompileBlock(ids, exts)
	}
	if block("ko", "ki") == nil {
		t.Fatal("CompileBlock(ko,ki) rejected an affine pair")
	}
	if block("f", "ki") != nil {
		t.Fatal("CompileBlock(f,ki) accepted a collapse source as the outer variable")
	}
	if block("f", "ko", "ki") != nil {
		t.Fatal("CompileBlock(f,ko,ki) accepted a collapse source as the plane variable")
	}
}
