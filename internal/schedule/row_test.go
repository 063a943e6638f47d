package schedule

import (
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
// insist it exercised the regimes it is about.
type blockCoverage struct{ blocks, ragged, empty, perPoint int }

// checkBlockPlan compares BlockRun against the per-point Run over every
// block of the schedule: every assignment of the loop-order variables other
// than the block's outer and inner variable (outer "" is the height-1 block,
// a row). For each block BlockRun accepts it checks the two facts blocked
// kernels lean on: (1) the prefix box is exact — a block point is in the
// iteration space if and only if it lies inside the box; (2) each original
// variable's value at block point (u,v) is its origin value plus u times the
// outer step plus v times the inner step.
func checkBlockPlan(t *testing.T, s *Schedule, ev *Evaluator, vp *ValueProgram, ext map[string]int, outer, inner string) blockCoverage {
	t.Helper()
	outerID, outerExt := -1, 1
	if outer != "" {
		outerID, outerExt = ev.VarID(outer), ext[outer]
	}
	innerID, innerExt := ev.VarID(inner), ext[inner]
	bp := vp.CompileBlock(outerID, innerID, outerExt, innerExt)
	if bp == nil {
		t.Fatalf("CompileBlock(%q,%q) = nil; divide/split variables must be affine", outer, inner)
	}

	var ids, dims []int
	for _, name := range s.Order() {
		if name != outer && name != inner {
			ids = append(ids, ev.VarID(name))
			dims = append(dims, ext[name])
		}
	}
	nv := ev.NumVars()
	vals := make([]int, nv)
	refVals := make([]int, nv)
	origin := make([]int, len(ev.OrigIDs()))
	refOrig := make([]int, len(ev.OrigIDs()))
	su, sv := bp.OuterSteps(), bp.InnerSteps()

	var cov blockCoverage
	asst := make([]int, len(ids))
	for {
		for i, id := range ids {
			vals[id] = asst[i]
		}
		if outerID >= 0 {
			vals[outerID] = 0
		}
		vals[innerID] = 0
		nu, nvv, ok := vp.BlockRun(bp, vals, origin)
		cov.blocks++
		switch {
		case !ok:
			cov.perPoint++
		case nu == 0 || nvv == 0:
			cov.empty++
		case nu < outerExt || nvv < innerExt:
			cov.ragged++
		}
		if nu > outerExt || nvv > innerExt {
			t.Fatalf("block %v: box %dx%d exceeds the loop extents %dx%d", asst, nu, nvv, outerExt, innerExt)
		}
		for u := 0; ok && u < outerExt; u++ {
			for v := 0; v < innerExt; v++ {
				for i, id := range ids {
					refVals[id] = asst[i]
				}
				if outerID >= 0 {
					refVals[outerID] = u
				}
				refVals[innerID] = v
				in := vp.Run(refVals, refOrig)
				if in != (u < nu && v < nvv) {
					t.Fatalf("block %v point (%d,%d): Run in-bounds=%v but BlockRun box=%dx%d", asst, u, v, in, nu, nvv)
				}
				if !in {
					continue
				}
				for i := range refOrig {
					if want := origin[i] + u*su[i] + v*sv[i]; refOrig[i] != want {
						t.Fatalf("block %v point (%d,%d): orig[%d] = %d, stepped origin gives %d (steps %d,%d)",
							asst, u, v, i, refOrig[i], want, su[i], sv[i])
					}
				}
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
	cov := checkBlockPlan(t, s, ev, vp, ext, "", order[len(order)-1]) // ki
	if cov.ragged == 0 || cov.ragged == cov.blocks || cov.perPoint != 0 {
		t.Fatalf("degenerate coverage: %+v (want full and ragged rows, none per point)", cov)
	}
}

// TestBlockPlanMatchesRun checks 2-D blocks the same way. The rotated
// schedule's leaf pairs are separable (each ragged check bounds one block
// variable), so every block is an exact prefix box, ragged in one variable
// or in both. The unrotated schedule adds the coupled case — the block
// variables are the outer and inner half of one divide — where a divisible
// extent still gives a full box and a ragged one must be handed back to the
// per-point walk. Non-affine block variables are rejected outright.
func TestBlockPlanMatchesRun(t *testing.T) {
	s, ev, vp, ext := rowTestProgram(t)
	for _, pair := range [][2]string{{"ji", "ki"}, {"ii", "ji"}, {"ii", "ki"}, {"ki", "ii"}} {
		cov := checkBlockPlan(t, s, ev, vp, ext, pair[0], pair[1])
		if cov.ragged == 0 || cov.ragged == cov.blocks || cov.perPoint != 0 {
			t.Fatalf("%v: degenerate coverage %+v (want full and ragged boxes, none per point)", pair, cov)
		}
	}
	// A rotation source or offset as either block variable is not affine.
	for _, pair := range [][2]string{{"kos", "ki"}, {"ji", "kos"}, {"io", "ii"}, {"ii", "jo"}} {
		if bp := vp.CompileBlock(ev.VarID(pair[0]), ev.VarID(pair[1]), ext[pair[0]], ext[pair[1]]); bp != nil {
			t.Fatalf("CompileBlock%v accepted a rotation operand", pair)
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
	if cov := checkBlockPlan(t, u, uev, uvp, uext, "jo", "ji"); cov.perPoint != 0 || cov.ragged != 0 || cov.empty == cov.blocks {
		t.Fatalf("coupled divisible pair: %+v (want every in-space block a full box)", cov)
	}
	if cov := checkBlockPlan(t, u, uev, uvp, uext, "ko", "ki"); cov.perPoint != cov.blocks {
		t.Fatalf("coupled ragged pair: %+v (want every block handed back per point)", cov)
	}
}

// TestCompileRowRejectsNonAffine pins the eligibility rule: a loop-order
// variable that feeds a rotation (as its source or as an offset) or a
// collapse reconstruction is not affine, so CompileBlock must refuse and the
// kernel must fall back to per-point evaluation.
func TestCompileRowRejectsNonAffine(t *testing.T) {
	_, ev, vp, ext := rowTestProgram(t)
	row := func(ev *Evaluator, vp *ValueProgram, ext map[string]int, name string) *BlockPlan {
		return vp.CompileBlock(-1, ev.VarID(name), 1, ext[name])
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
	s := New(stmt).Collapse("i", "j", "f")
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
	// k is untouched by the collapse and stays affine (step 1 into itself),
	// alone and as the inner variable under the rejected f.
	if row(fev, fvp, fext, "k") == nil {
		t.Fatal("CompileBlock(k) rejected an unconstrained affine variable")
	}
	if fvp.CompileBlock(fev.VarID("f"), fev.VarID("k"), fext["f"], fext["k"]) != nil {
		t.Fatal("CompileBlock(f,k) accepted a collapse source as the outer variable")
	}
}
