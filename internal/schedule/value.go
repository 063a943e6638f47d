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
// the innermost leaf loops — up to three of them — reconstruct affinely,
// kernels run one pass per block of them instead (BlockPlan).

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

// BlockPlan describes how a ValueProgram behaves over one block: every
// loop-order variable held fixed except one, two or three (the block
// variables, typically a kernel's innermost leaf loops), which step through
// consecutive integers from 0. Block dimensions are right-aligned: the
// innermost block variable is always dimension 2 (the row), the next one out
// dimension 1 and a third one dimension 0 (the plane); a plan over fewer
// variables has extent 1 and zero steps in its leading dimensions, so a row
// is the 1x1xn block. A plan exists only when every original variable's
// reconstruction is affine in every block variable — reached only through
// divide/split reconstructions (value = outer*block + inner, a constant
// non-negative step per unit of a block variable) and through
// rotations/fusions that depend on none. Then each original value advances by
// a constant step per unit of any block variable, and the in-space points of
// a block form a prefix box: every divide/split check value is
// non-decreasing in every block variable, so a check that moves with one of
// them bounds that variable alone. Blocked kernel loops lean on exactly these
// two facts (see BlockRun).
type BlockPlan struct {
	ext   [3]int     // loop extent per dimension (1 for an absent one)
	steps [3][]int   // per dimension, per original variable: d(value)/d(variable)
	ops   [][3]int32 // per vp.ops entry: d(op value)/d(variable), per dimension
}

// Steps returns, per original statement variable (stmt.Vars() order), how
// much its reconstructed value advances when the block variable of dimension
// d (0 plane, 1 outer, 2 inner) advances by one. The returned slice must not
// be modified.
func (bp *BlockPlan) Steps(d int) []int { return bp.steps[d] }

// Plane returns the plan of one plane of bp's block: the same steps with the
// plane variable held at the caller's value in vals (dimension 0 of extent
// 1). It shares bp's tables and allocates nothing.
func (bp *BlockPlan) Plane() BlockPlan {
	p := *bp
	p.ext[0] = 1
	return p
}

// CompileBlock analyzes the program's dependence on one, two or three
// loop-order variables (vars, outermost first, with loop extents exts) and
// returns a BlockPlan, or nil when some reconstruction is not affine in one of
// them (the variable feeds a rotation's modulus or a fusion's div/mod —
// callers try fewer block variables or fall back to per-point evaluation).
// vars must be loop-order variable ids (never the target of an op).
func (vp *ValueProgram) CompileBlock(vars, exts []int) *BlockPlan {
	lead := 3 - len(vars)
	step := make([][3]int32, vp.nv)
	for i, id := range vars {
		step[id][lead+i] = 1
	}
	ops := make([][3]int32, len(vp.ops))
	var zero [3]int32
	for i := range vp.ops {
		op := &vp.ops[i]
		switch op.kind {
		case valDivSplit:
			a, b := step[op.a], step[op.b]
			for d := range ops[i] {
				ops[i][d] = a[d]*op.p + b[d]
			}
			step[op.id] = ops[i]
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
	n := len(vp.orig)
	steps := make([]int, 3*n)
	bp := &BlockPlan{ext: [3]int{1, 1, 1}, ops: ops}
	copy(bp.ext[lead:], exts)
	for d := range bp.steps {
		bp.steps[d] = steps[d*n : (d+1)*n : (d+1)*n]
		for i, id := range vp.orig {
			bp.steps[d][i] = int(step[id][d])
		}
	}
	return bp
}

// BlockRun evaluates the program at a block's origin (the caller binds every
// block variable to 0 in vals, all other loop-order variables to their
// values) and returns the prefix box [0,box[0]) x [0,box[1]) x [0,box[2]) of
// the block that lies inside the iteration space, clamped to the plan's loop
// extents. origVals receives the original variables' values at the origin;
// inside the box, original variable i advances by Steps(d)[i] per unit of
// dimension d. An empty box (all zero) means the whole block is outside.
// BlockRun performs no allocation.
//
// With ok the box is exact, not conservative: the only way a full assignment
// can leave the iteration space is a divide/split ragged-tail check, each
// check value is affine with non-negative steps in the block variables (bp
// exists only then), a check that fails at the origin fails everywhere, and
// a check that moves with one block variable (of extent above 1) cuts a
// prefix of that variable alone. A check that moves with two or more (block
// variables that are halves of one divide) describes a box only when it
// cannot fail anywhere in the block; when it can, BlockRun reports !ok and
// the caller judges the block per plane (Plane) or per point.
func (vp *ValueProgram) BlockRun(bp *BlockPlan, vals []int, origVals []int) (box [3]int, ok bool) {
	box = bp.ext
	for i := range vp.ops {
		op := &vp.ops[i]
		switch op.kind {
		case valDivSplit:
			v := vals[op.a]*int(op.p) + vals[op.b]
			ext := int(op.ext)
			if v >= ext {
				return [3]int{}, true
			}
			// moved counts the block variables the check moves with; reach
			// is its growth from the origin to the block's far corner.
			s := &bp.ops[i]
			moved, reach, dim := 0, 0, 0
			for d := range s {
				if s[d] > 0 && bp.ext[d] > 1 {
					moved++
					reach += int(s[d]) * (bp.ext[d] - 1)
					dim = d
				}
			}
			if v+reach >= ext {
				if moved > 1 {
					return [3]int{}, false
				}
				sd := int(s[dim])
				box[dim] = min(box[dim], (ext-v+sd-1)/sd)
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
	return box, true
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
