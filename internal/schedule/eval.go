package schedule

import "sort"

// This file compiles a schedule's bounds analysis into an Evaluator: a
// topologically-ordered slice program over integer variable ids. The
// derived-variable DAG is resolved once per (schedule, extents) — the
// bounds analysis used to derive region requirement rectangles (§6.2);
// evaluating a point is then a single linear pass that
// fills a caller-owned []Interval scratch buffer with no allocation. This is
// the hot path of compilation — it runs once per tensor per domain point —
// and of Real-mode leaf kernels.

type evalOpKind uint8

const (
	// opLoop is a variable in the loop order: fixed by the environment or
	// spanning its full extent.
	opLoop evalOpKind = iota
	// opDivSplit reconstructs a divided/split origin from outer and inner.
	opDivSplit
	// opRotate reconstructs a rotated origin from the rotation variable and
	// its offset variables.
	opRotate
	// opFuseOuter/opFuseInner reconstruct the constituents of a collapse.
	opFuseOuter
	opFuseInner
	// opFull is the unconstrained fallback (full extent).
	opFull
)

// evalOp computes the interval of variable id from operands evaluated by
// earlier ops.
type evalOp struct {
	kind    evalOpKind
	id      int32
	a, b    int32   // opDivSplit: outer, inner; opRotate/opFuse*: source var
	p       int32   // opDivSplit: block size; opFuse*: inner (FuseB) extent
	offsets []int32 // opRotate: offset variable ids
}

// Evaluator is the bounds analysis of one schedule compiled against one set
// of extents. It is immutable and safe for concurrent use; callers supply
// per-goroutine scratch buffers.
type Evaluator struct {
	ids     map[string]int
	names   []string
	extents []int    // by variable id
	prog    []evalOp // topological order: operands before users
	orig    []int32  // ids of the statement's original variables, stmt.Vars() order
}

// NumVars returns the number of schedule variables; every scratch slice
// passed to Eval must have exactly this length.
func (ev *Evaluator) NumVars() int { return len(ev.names) }

// VarID returns the id of a variable, or -1 if unknown.
func (ev *Evaluator) VarID(name string) int {
	if id, ok := ev.ids[name]; ok {
		return id
	}
	return -1
}

// VarName returns the name of a variable id.
func (ev *Evaluator) VarName(id int) string { return ev.names[id] }

// Extent returns the extent of a variable id.
func (ev *Evaluator) Extent(id int) int { return ev.extents[id] }

// OrigIDs returns the ids of the statement's original variables in
// stmt.Vars() order. The returned slice must not be modified.
func (ev *Evaluator) OrigIDs() []int32 { return ev.orig }

// Eval computes the value interval of every variable. fixed[id] marks
// variables bound to vals[id] (the environment); every other variable in
// the loop order spans its full extent, and replaced variables are
// reconstructed from their replacements. Results land in out, indexed by
// variable id. All three slices must have length NumVars. Eval performs no
// allocation.
func (ev *Evaluator) Eval(fixed []bool, vals []int, out []Interval) {
	for i := range ev.prog {
		op := &ev.prog[i]
		id := op.id
		if fixed[id] {
			x := vals[id]
			out[id] = Interval{Lo: x, Hi: x + 1}
			continue
		}
		switch op.kind {
		case opLoop, opFull:
			out[id] = Interval{Lo: 0, Hi: ev.extents[id]}
		case opDivSplit:
			outer, inner := out[op.a], out[op.b]
			blk := int(op.p)
			iv := Interval{Lo: outer.Lo*blk + inner.Lo, Hi: (outer.Hi-1)*blk + inner.Hi}
			out[id] = clampIv(iv, ev.extents[id])
		case opRotate:
			rv := out[op.a]
			allFixed := rv.Fixed()
			sum := rv.Lo
			for _, o := range op.offsets {
				ov := out[o]
				if !ov.Fixed() {
					allFixed = false
					break
				}
				sum += ov.Lo
			}
			if allFixed {
				x := sum % ev.extents[id]
				out[id] = Interval{Lo: x, Hi: x + 1}
			} else {
				out[id] = Interval{Lo: 0, Hi: ev.extents[id]}
			}
		case opFuseOuter:
			if fv := out[op.a]; fv.Fixed() {
				x := fv.Lo / int(op.p)
				out[id] = Interval{Lo: x, Hi: x + 1}
			} else {
				out[id] = Interval{Lo: 0, Hi: ev.extents[id]}
			}
		case opFuseInner:
			if fv := out[op.a]; fv.Fixed() {
				x := fv.Lo % int(op.p)
				out[id] = Interval{Lo: x, Hi: x + 1}
			} else {
				out[id] = Interval{Lo: 0, Hi: ev.extents[id]}
			}
		}
	}
}

// CompileEvaluator resolves the schedule's derived-variable DAG against the
// given extents (which must come from Extents) into an Evaluator. The result
// does not reference the schedule and stays valid if further commands are
// applied — it describes the schedule as of the call.
func (s *Schedule) CompileEvaluator(extents map[string]int) *Evaluator {
	ev := &Evaluator{ids: make(map[string]int, len(s.vars))}
	// Deterministic ids: loop-order variables first, then replaced variables
	// in statement order (statement vars, then remaining by discovery through
	// the DAG — every replaced var is reachable from a statement var or is
	// itself ignorable).
	addVar := func(name string) int {
		if id, ok := ev.ids[name]; ok {
			return id
		}
		id := len(ev.names)
		ev.ids[name] = id
		ev.names = append(ev.names, name)
		ev.extents = append(ev.extents, extents[name])
		return id
	}
	for _, name := range s.order {
		addVar(name)
	}
	for _, v := range s.stmt.Vars() {
		addVar(v.Name)
	}
	for _, name := range sortedVarNames(s.vars) {
		addVar(name)
	}

	emitted := make([]bool, len(ev.names))
	var emit func(name string)
	emit = func(name string) {
		id := ev.ids[name]
		if emitted[id] {
			return
		}
		emitted[id] = true // pre-mark: the DAG is acyclic by construction
		if s.posOf(name) >= 0 {
			ev.prog = append(ev.prog, evalOp{kind: opLoop, id: int32(id)})
			return
		}
		switch {
		case s.dividedOrSplit(name) != nil:
			d := s.dividedOrSplit(name)
			emit(d.outer)
			emit(d.inner)
			ev.prog = append(ev.prog, evalOp{
				kind: opDivSplit, id: int32(id),
				a: int32(ev.ids[d.outer]), b: int32(ev.ids[d.inner]),
				p: int32(d.blockSize(extents)),
			})
		case s.rotatedBy(name) != nil:
			r := s.rotatedBy(name)
			emit(r.Name)
			offs := make([]int32, len(r.RotateOffsets))
			for i, o := range r.RotateOffsets {
				emit(o)
				offs[i] = int32(ev.ids[o])
			}
			ev.prog = append(ev.prog, evalOp{
				kind: opRotate, id: int32(id), a: int32(ev.ids[r.Name]), offsets: offs,
			})
		case s.fusedInto(name) != nil:
			f := s.fusedInto(name)
			emit(f.Name)
			kind := opFuseOuter
			if name == f.FuseB {
				kind = opFuseInner
			}
			ev.prog = append(ev.prog, evalOp{
				kind: kind, id: int32(id),
				a: int32(ev.ids[f.Name]), p: int32(extents[f.FuseB]),
			})
		default:
			// Unconstrained (should not happen): full extent.
			ev.prog = append(ev.prog, evalOp{kind: opFull, id: int32(id)})
		}
	}
	for _, name := range ev.names {
		emit(name)
	}
	for _, v := range s.stmt.Vars() {
		ev.orig = append(ev.orig, int32(ev.ids[v.Name]))
	}
	return ev
}

func sortedVarNames(vars map[string]*Var) []string {
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
