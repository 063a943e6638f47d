package tune

import (
	"fmt"
	"sort"

	"distal/internal/ir"
	"distal/internal/schedule"
)

// Space is the tuner's search space for one statement on one machine grid:
// the machine-grid-compatible tilings of the statement's index variables,
// and per tiling the sequential-step pipelines (SUMMA-style broadcast or
// Cannon-style rotation) and per-tensor communicate placements that refine
// it. Every candidate the space emits is a serializable schedule in command
// text form, in the canonical form its legality check (canonicalize)
// renders, so the tuner counts and deduplicates the texts without
// re-parsing them.
type Space struct {
	stmt    *ir.Assignment
	ext     map[string]int
	grid    []int
	vars    []string // statement loop order
	isOut   map[string]bool
	isRed   map[string]bool
	tensors []string
	output  string

	// rejected counts candidates the generator built but its own legality
	// gate refused (e.g. derived names colliding with statement variables),
	// so tuning stats can report the full generation count.
	rejected int
}

// Rejected returns how many generated candidates the legality gate refused
// before they were ever offered for evaluation.
func (sp *Space) Rejected() int { return sp.rejected }

// NewSpace builds the search space. extents maps every index variable of the
// statement to its concrete extent (ir.Assignment.VarExtents), grid is the
// machine's leaf grid.
func NewSpace(stmt *ir.Assignment, extents map[string]int, grid []int) (*Space, error) {
	if stmt == nil {
		return nil, fmt.Errorf("tune: nil statement")
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("tune: machine grid is empty")
	}
	sp := &Space{
		stmt:    stmt,
		ext:     extents,
		grid:    grid,
		isOut:   map[string]bool{},
		isRed:   map[string]bool{},
		tensors: stmt.TensorNames(),
		output:  stmt.LHS.Tensor,
	}
	for _, v := range stmt.Vars() {
		if _, ok := extents[v.Name]; !ok {
			return nil, fmt.Errorf("tune: no extent for variable %s", v.Name)
		}
		sp.vars = append(sp.vars, v.Name)
	}
	for _, v := range stmt.LHS.Indices {
		sp.isOut[v.Name] = true
	}
	for _, v := range stmt.ReductionVars() {
		sp.isRed[v.Name] = true
	}
	return sp, nil
}

// Tiling is one way of mapping the machine grid onto the statement: an
// ordered selection of index variables, one per machine dimension, each
// divided by that dimension's extent and distributed. It is the unit the
// beam search ranks and refines.
type Tiling struct {
	sel    []string // source variables, machine-dimension order
	outers []string // divided outer halves, the distributed prefix
	rest   []string // loop order after the prefix (inners + untouched vars)
	base   schedule.Commands
	text   string // base candidate: owner-computes communicate at the prefix
}

// Text returns the tiling's base candidate schedule text.
func (t *Tiling) Text() string { return t.text }

func command(op string, args ...string) schedule.Command {
	return schedule.Command{Op: op, Args: args}
}

// canonicalize applies the commands to a fresh schedule and returns the
// applied log's text — the canonical form under which candidates are
// deduplicated (no-op commands vanish, every surviving command renders
// exactly as recorded). ok is false when the commands are illegal. It is the
// pre-compile legality gate: everything it admits the scheduling language
// accepts, so compile failures are left to the oracle (and counted
// separately).
func (sp *Space) canonicalize(cs schedule.Commands) (string, bool) {
	s := schedule.New(sp.stmt).Apply(cs)
	if s.Err() != nil {
		return "", false
	}
	return s.Commands().String(), true
}

// Tilings enumerates the machine-grid-compatible tilings: ordered selections
// of distinct index variables, one per grid dimension, whose extents divide
// evenly by that dimension (no ragged tiles). The result is deterministic,
// ordered owner-computes-first: selections using only output variables come
// before those distributing reduction variables, ties broken by schedule
// text.
func (sp *Space) Tilings() []*Tiling {
	g := len(sp.grid)
	var out []*Tiling
	sel := make([]string, 0, g)
	used := map[string]bool{}
	var rec func(d int)
	rec = func(d int) {
		if d == g {
			if t := sp.buildTiling(sel); t != nil {
				out = append(out, t)
			}
			return
		}
		for _, v := range sp.vars {
			if used[v] {
				continue
			}
			e := sp.ext[v]
			c := sp.grid[d]
			if c < 1 || e < c || e%c != 0 {
				continue
			}
			used[v] = true
			sel = append(sel, v)
			rec(d + 1)
			sel = sel[:len(sel)-1]
			used[v] = false
		}
	}
	rec(0)
	sort.SliceStable(out, func(i, j int) bool {
		ni, nj := sp.nonOutputCount(out[i].sel), sp.nonOutputCount(out[j].sel)
		if ni != nj {
			return ni < nj
		}
		return out[i].text < out[j].text
	})
	return out
}

func (sp *Space) nonOutputCount(sel []string) int {
	n := 0
	for _, v := range sel {
		if !sp.isOut[v] {
			n++
		}
	}
	return n
}

// buildTiling lowers one selection to commands: divide each selected
// variable by its machine dimension, reorder the outer halves to the front,
// distribute them, and (for the base candidate) aggregate every tensor's
// communication at the innermost distributed variable — the owner-computes
// shape AutoSchedule emits when the selection is the output prefix.
func (sp *Space) buildTiling(sel []string) *Tiling {
	t := &Tiling{sel: append([]string(nil), sel...)}
	order := append([]string(nil), sp.vars...)
	for d, v := range sel {
		o, i := v+"_o", v+"_i"
		t.base = append(t.base, command("divide", v, o, i, fmt.Sprint(sp.grid[d])))
		order = replaceVar(order, v, o, i)
		t.outers = append(t.outers, o)
	}
	isOuter := map[string]bool{}
	for _, o := range t.outers {
		isOuter[o] = true
	}
	for _, v := range order {
		if !isOuter[v] {
			t.rest = append(t.rest, v)
		}
	}
	target := append(append([]string(nil), t.outers...), t.rest...)
	t.base = append(t.base,
		command("reorder", target...),
		command("distribute", t.outers...),
	)
	cs := append(append(schedule.Commands(nil), t.base...),
		command("communicate", append([]string{t.anchor()}, sp.tensors...)...))
	text, ok := sp.canonicalize(cs)
	if !ok {
		sp.rejected++
		return nil
	}
	t.text = text
	return t
}

// anchor is the tiling's task-level communicate anchor: the innermost
// distributed variable.
func (t *Tiling) anchor() string { return t.outers[len(t.outers)-1] }

func replaceVar(order []string, v string, repl ...string) []string {
	out := make([]string, 0, len(order)+len(repl)-1)
	for _, x := range order {
		if x == v {
			out = append(out, repl...)
		} else {
			out = append(out, x)
		}
	}
	return out
}

// stepCounts returns the candidate sequential-step counts for pipelining
// variable v: the distinct machine dimensions and their doubles, kept when
// they divide v's extent evenly. Ascending, deduplicated, at most four.
func (sp *Space) stepCounts(v string) []int {
	e := sp.ext[v]
	seen := map[int]bool{}
	var out []int
	add := func(s int) {
		if s > 1 && s <= e && e%s == 0 && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, d := range sp.grid {
		add(d)
	}
	for _, d := range sp.grid {
		add(2 * d)
	}
	sort.Ints(out)
	if len(out) > 4 {
		out = out[:4]
	}
	return out
}

// stepVars returns the variables a pipeline may step over for tiling t: the
// original statement variables left undivided by the tiling, reduction
// variables first (the classic SUMMA/Cannon contraction pipelines), each in
// statement order.
func (sp *Space) stepVars(t *Tiling) []string {
	inSel := map[string]bool{}
	for _, v := range t.sel {
		inSel[v] = true
	}
	var reds, others []string
	for _, v := range sp.vars {
		if inSel[v] {
			continue
		}
		if sp.isRed[v] {
			reds = append(reds, v)
		} else {
			others = append(others, v)
		}
	}
	return append(reds, others...)
}

// anchorMasks returns the per-tensor communicate placements to try in a
// pipeline: bit i set anchors tensor i at the sequential-step variable
// rather than the distributed prefix. The preferred mask — inputs stepped,
// output aggregated at the prefix — comes first, then the uniform masks,
// then the rest ascending, bounded at eight.
func (sp *Space) anchorMasks() []int {
	n := len(sp.tensors)
	pref := 0
	for i, t := range sp.tensors {
		if t != sp.output {
			pref |= 1 << i
		}
	}
	seen := map[int]bool{}
	var out []int
	add := func(m int) {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	add(pref)
	add(0)
	add(1<<n - 1)
	for m := 0; m < 1<<n && len(out) < 8; m++ {
		add(m)
	}
	return out
}

// Refinements enumerates the sequential-step pipelines of one tiling: a
// remaining variable is divided into steps, the step loop is placed directly
// inside the distributed prefix, optionally rotated by the distributed
// variables (systolic, Cannon-style), and each tensor's communication is
// anchored either at the prefix or at the step loop. Deterministic order:
// step variable (reductions first), step count ascending, broadcast before
// rotate, preferred anchor placement first.
func (sp *Space) Refinements(t *Tiling) []string {
	var out []string
	masks := sp.anchorMasks()
	for _, v := range sp.stepVars(t) {
		for _, s := range sp.stepCounts(v) {
			so, si := v+"_o", v+"_i"
			pipe := append(schedule.Commands(nil), t.base...)
			pipe = append(pipe, command("divide", v, so, si, fmt.Sprint(s)))
			rest := replaceVar(t.rest, v, si)
			target := append(append(append([]string(nil), t.outers...), so), rest...)
			pipe = append(pipe, command("reorder", target...))
			for _, rot := range []bool{false, true} {
				step := so
				cs := append(schedule.Commands(nil), pipe...)
				if rot {
					step = v + "_r"
					cs = append(cs, command("rotate", append(append([]string{so}, t.outers...), step)...))
				}
				for _, mask := range masks {
					cand := append(append(schedule.Commands(nil), cs...), sp.communicates(mask, t.anchor(), step)...)
					text, ok := sp.canonicalize(cand)
					if !ok {
						sp.rejected++
						continue
					}
					out = append(out, text)
				}
			}
		}
	}
	return out
}

// communicates renders the per-tensor anchor assignment as communicate
// commands: tensors with their mask bit clear aggregate at the distributed
// prefix, set bits at the sequential-step variable.
func (sp *Space) communicates(mask int, taskAnchor, stepAnchor string) schedule.Commands {
	var atTask, atStep []string
	for i, tn := range sp.tensors {
		if mask&(1<<i) != 0 {
			atStep = append(atStep, tn)
		} else {
			atTask = append(atTask, tn)
		}
	}
	var cs schedule.Commands
	if len(atTask) > 0 {
		cs = append(cs, command("communicate", append([]string{taskAnchor}, atTask...)...))
	}
	if len(atStep) > 0 {
		cs = append(cs, command("communicate", append([]string{stepAnchor}, atStep...)...))
	}
	return cs
}
