package schedule

import "fmt"

// This file extends the compiled bounds evaluator (eval.go) to the value
// domain. A ValueProgram is the scalar counterpart of Evaluator.Eval for a
// full assignment: every loop-order variable is bound to a concrete integer
// by the caller, so each derived variable reduces to a handful of integer
// operations (divide/split reconstruction, rotation, fusion) instead of an
// interval computation over every variable. Real-mode leaf kernels run one
// ValueProgram pass per leaf point — this is the hottest loop of validated
// execution, so the program touches only the variables the statement's
// original indices actually derive from and performs no allocation. Where
// the two innermost leaf loops reconstruct affinely, kernels run one pass
// per 2-D block instead (BlockPlan).

type valKind uint8

const (
	// valDivSplit reconstructs a divided/split origin: outer*block + inner.
	// The reconstruction can exceed the origin's extent on the ragged tail
	// of a non-divisible block; such points are outside the iteration space.
	valDivSplit valKind = iota
	// valRotate reconstructs a rotated origin: (source + offsets) mod extent.
	valRotate
	// valFuseOuter/valFuseInner reconstruct the constituents of a collapse.
	valFuseOuter
	valFuseInner
	// valZero binds an unconstrained unit-extent variable to 0.
	valZero
)

// valOp computes the concrete value of variable id from operands evaluated
// by earlier ops or bound by the environment.
type valOp struct {
	kind    valKind
	id      int32
	a, b    int32   // valDivSplit: outer, inner; others: source var
	p       int32   // valDivSplit: block size; valFuse*: inner extent
	ext     int32   // extent of id (ragged check, rotation modulus)
	offsets []int32 // valRotate: offset variable ids
}

// ValueProgram is the value-domain form of an Evaluator: a topologically
// ordered integer program that derives every replaced variable from a full
// assignment of the loop-order variables. It is immutable and safe for
// concurrent use; callers supply per-goroutine scratch.
type ValueProgram struct {
	ops  []valOp
	orig []int32 // ids of the statement's original variables
	nv   int
}

// NumVars returns the length every vals slice passed to Run must have.
func (vp *ValueProgram) NumVars() int { return vp.nv }

// Run derives the concrete value of every original statement variable from
// vals, in which the caller has bound every loop-order variable (see
// Evaluator.VarID). Derived variables are written back into vals as scratch;
// the original variables land in origVals in stmt.Vars() order. Run reports
// false when the point falls outside the iteration space (the ragged tail of
// a non-divisible block). It performs no allocation.
func (vp *ValueProgram) Run(vals []int, origVals []int) bool {
	for i := range vp.ops {
		op := &vp.ops[i]
		switch op.kind {
		case valDivSplit:
			v := vals[op.a]*int(op.p) + vals[op.b]
			if v >= int(op.ext) {
				return false
			}
			vals[op.id] = v
		case valRotate:
			s := vals[op.a]
			for _, o := range op.offsets {
				s += vals[o]
			}
			vals[op.id] = s % int(op.ext)
		case valFuseOuter:
			vals[op.id] = vals[op.a] / int(op.p)
		case valFuseInner:
			vals[op.id] = vals[op.a] % int(op.p)
		case valZero:
			vals[op.id] = 0
		}
	}
	for i, id := range vp.orig {
		origVals[i] = vals[id]
	}
	return true
}

// BlockPlan describes how a ValueProgram behaves over one 2-D "block": every
// loop-order variable held fixed except two (the block's outer and inner
// variables, typically a kernel's two innermost leaf loops), which step
// through consecutive integers from 0. A row — one varying variable — is the
// height-1 block (no outer variable). A plan exists only when every original
// variable's reconstruction is affine in both block variables — reached only
// through divide/split reconstructions (value = outer*block + inner, a
// constant non-negative step per unit of a block variable) and through
// rotations/fusions that depend on neither. Then each original value
// advances by a constant step per unit of either variable, and the in-space
// points of a block form a prefix box: every divide/split check value is
// non-decreasing in both variables, so a check that depends on one of them
// bounds that variable alone. Blocked kernel loops lean on exactly these two
// facts (see BlockRun).
type BlockPlan struct {
	outerExt, innerExt int
	outerSteps         []int      // per original variable: d(value)/d(outer)
	innerSteps         []int      // per original variable: d(value)/d(inner)
	opSteps            [][2]int32 // per vp.ops entry: d(op value)/d(outer, inner)
}

// OuterSteps and InnerSteps return, per original statement variable
// (stmt.Vars() order), how much its reconstructed value advances when the
// block's outer or inner variable advances by one. The returned slices must
// not be modified.
func (bp *BlockPlan) OuterSteps() []int { return bp.outerSteps }
func (bp *BlockPlan) InnerSteps() []int { return bp.innerSteps }

// CompileBlock analyzes the program's dependence on two loop-order variables
// with the given loop extents and returns a BlockPlan, or nil when some
// reconstruction is not affine in one of them (the variable feeds a
// rotation's modulus or a fusion's div/mod — callers fall back to per-point
// evaluation). outer and inner must be loop-order variable ids (never the
// target of an op); outer < 0 compiles the height-1 block over inner alone
// (outerExt is then taken as 1).
func (vp *ValueProgram) CompileBlock(outer, inner, outerExt, innerExt int) *BlockPlan {
	if outer < 0 {
		outerExt = 1
	}
	bp := &BlockPlan{
		outerExt:   outerExt,
		innerExt:   innerExt,
		outerSteps: make([]int, len(vp.orig)),
		innerSteps: make([]int, len(vp.orig)),
		opSteps:    make([][2]int32, len(vp.ops)),
	}
	step := make([][2]int32, vp.nv)
	if outer >= 0 {
		step[outer][0] = 1
	}
	step[inner][1] = 1
	var zero [2]int32
	for i := range vp.ops {
		op := &vp.ops[i]
		switch op.kind {
		case valDivSplit:
			a, b := step[op.a], step[op.b]
			s := [2]int32{a[0]*op.p + b[0], a[1]*op.p + b[1]}
			bp.opSteps[i] = s
			step[op.id] = s
		case valRotate:
			if step[op.a] != zero {
				return nil // wraps mod extent: not affine in a block variable
			}
			for _, o := range op.offsets {
				if step[o] != zero {
					return nil
				}
			}
		case valFuseOuter, valFuseInner:
			if step[op.a] != zero {
				return nil // integer div/mod: not affine in a block variable
			}
		case valZero:
			// Constant.
		}
	}
	for i, id := range vp.orig {
		bp.outerSteps[i] = int(step[id][0])
		bp.innerSteps[i] = int(step[id][1])
	}
	return bp
}

// BlockRun evaluates the program at a block's origin (the caller binds both
// block variables to 0 in vals, all other loop-order variables to their
// values) and returns the prefix box [0,nu) x [0,nv) of the block that lies
// inside the iteration space, clamped to the plan's loop extents. origVals
// receives the original variables' values at the origin; inside the box,
// original variable i advances by OuterSteps()[i] and InnerSteps()[i] per
// unit of the outer and inner variable. An empty box (nu or nv zero) means
// the whole block is outside. BlockRun performs no allocation.
//
// With ok the box is exact, not conservative: the only way a full assignment
// can leave the iteration space is a divide/split ragged-tail check, each
// check value is affine with non-negative steps in the block variables (bp
// exists only then), a check that fails at the origin fails everywhere, and
// a check that depends on one block variable cuts a prefix of that variable
// alone. A check that depends on both (the block variables are the outer
// and inner halves of one divide) describes a box only when it cannot fail
// anywhere in the block; when it can, BlockRun reports !ok and the caller
// judges the block per point.
func (vp *ValueProgram) BlockRun(bp *BlockPlan, vals []int, origVals []int) (nu, nv int, ok bool) {
	nu, nv = bp.outerExt, bp.innerExt
	for i := range vp.ops {
		op := &vp.ops[i]
		switch op.kind {
		case valDivSplit:
			v := vals[op.a]*int(op.p) + vals[op.b]
			ext := int(op.ext)
			if v >= ext {
				return 0, 0, true
			}
			su, sv := int(bp.opSteps[i][0]), int(bp.opSteps[i][1])
			switch {
			case su > 0 && sv > 0:
				if v+su*(bp.outerExt-1)+sv*(bp.innerExt-1) >= ext {
					return 0, 0, false
				}
			case su > 0:
				nu = min(nu, (ext-v+su-1)/su)
			case sv > 0:
				nv = min(nv, (ext-v+sv-1)/sv)
			}
			vals[op.id] = v
		case valRotate:
			s := vals[op.a]
			for _, o := range op.offsets {
				s += vals[o]
			}
			vals[op.id] = s % int(op.ext)
		case valFuseOuter:
			vals[op.id] = vals[op.a] / int(op.p)
		case valFuseInner:
			vals[op.id] = vals[op.a] % int(op.p)
		case valZero:
			vals[op.id] = 0
		}
	}
	for i, id := range vp.orig {
		origVals[i] = vals[id]
	}
	return nu, nv, true
}

// CompileValues lowers the evaluator to the value domain. The resulting
// program assumes every loop-order variable is bound by the caller; it
// contains one op per replaced variable on a path from the loop order to a
// statement variable, in dependency order. Results are identical to running
// ValueInto over the same assignment (asserted by TestValueProgramMatchesValueInto).
func (ev *Evaluator) CompileValues() *ValueProgram {
	vp := &ValueProgram{orig: ev.orig, nv: len(ev.names)}
	for i := range ev.prog {
		op := &ev.prog[i]
		switch op.kind {
		case opLoop:
			// Bound by the environment: no derivation needed.
		case opDivSplit:
			vp.ops = append(vp.ops, valOp{
				kind: valDivSplit, id: op.id, a: op.a, b: op.b, p: op.p,
				ext: int32(ev.extents[op.id]),
			})
		case opRotate:
			vp.ops = append(vp.ops, valOp{
				kind: valRotate, id: op.id, a: op.a,
				ext: int32(ev.extents[op.id]), offsets: op.offsets,
			})
		case opFuseOuter:
			vp.ops = append(vp.ops, valOp{kind: valFuseOuter, id: op.id, a: op.a, p: op.p})
		case opFuseInner:
			vp.ops = append(vp.ops, valOp{kind: valFuseInner, id: op.id, a: op.a, p: op.p})
		case opFull:
			// A variable the schedule never constrains can only appear when
			// it is ignorable; a full assignment cannot fix it (ValueInto
			// panics in the same situation).
			if ev.extents[op.id] > 1 {
				panic(fmt.Sprintf("schedule: variable %s not fixed by full assignment", ev.names[op.id]))
			}
			vp.ops = append(vp.ops, valOp{kind: valZero, id: op.id})
		}
	}
	return vp
}
