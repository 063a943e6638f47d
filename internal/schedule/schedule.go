// Package schedule implements DISTAL's scheduling language (§2, §3.3): the
// loop transformations inherited from TACO (split, divide, reorder,
// collapse, parallelize, precompute) plus the three distribution commands
// introduced by the paper — distribute, communicate, and rotate.
//
// A Schedule is a pure description: it records transformations over the
// statement's index variables and validates them structurally. Every
// command also lands in a serializable log (serialize.go), so a schedule
// round-trips through command text — the form CLIs accept, autotuners
// emit, and the plan cache hashes. The compiler in internal/core resolves
// extents against concrete tensor shapes and lowers the scheduled
// statement to a Legion program.
//
// The schedule's derivation DAG — how original index variables are
// reconstructed from divided/split/rotated/fused loop variables — has two
// compiled forms, both resolved once per (schedule, extents) and
// allocation-free per evaluation: Evaluator (eval.go) computes value
// *intervals* under a partial environment and is the engine of the
// compiler's bounds analysis, and ValueProgram (value.go) computes concrete
// *values* under a full assignment and is the index-reconstruction step of
// Real-mode leaf kernels. Both are immutable and safe for concurrent use
// with caller-owned scratch.
package schedule

import (
	"fmt"
	"strings"

	"distal/internal/ir"
)

// VarKind classifies how an index variable came to exist.
type VarKind int

const (
	// Original variables come from the tensor index notation statement.
	Original VarKind = iota
	// DivideOuter/DivideInner result from divide(i, io, ii, c): io ranges
	// over c pieces, ii over each piece (pieces of size ceil(extent(i)/c)).
	DivideOuter
	DivideInner
	// SplitOuter/SplitInner result from split(i, io, ii, s): ii has extent
	// s, io has extent ceil(extent(i)/s).
	SplitOuter
	SplitInner
	// Fused results from collapse(i, j, f): f = i*extent(j) + j.
	Fused
	// Rotated results from rotate(t, I, r): r replaces t in the loop order
	// and t = (r + sum(I)) mod extent(t).
	Rotated
)

// Var is one index variable known to a schedule.
type Var struct {
	Name string
	Kind VarKind

	// Origin is the variable this one derives from (divide/split source,
	// rotate target). Empty for Original and Fused.
	Origin string
	// Partner is the sibling of a divide/split pair.
	Partner string
	// Param is the divide count or split size.
	Param int
	// FuseA and FuseB are the constituents of a Fused variable (A outer).
	FuseA, FuseB string
	// RotateOffsets are the I variables of rotate.
	RotateOffsets []string
}

// Schedule records the transformations applied to one statement.
type Schedule struct {
	stmt *ir.Assignment

	vars  map[string]*Var
	order []string // current loop order, outermost first

	distributed []string          // distributed variables, machine-dim order
	comm        map[string]string // tensor name -> anchor variable

	log Commands // every successful command, in application order

	err error // first error; sticky, checked by Err/Finish
}

// New starts an empty schedule over stmt: the loop order is the statement's
// default left-to-right order (§5.1).
func New(stmt *ir.Assignment) *Schedule {
	s := &Schedule{
		stmt: stmt,
		vars: map[string]*Var{},
		comm: map[string]string{},
	}
	for _, v := range stmt.Vars() {
		s.vars[v.Name] = &Var{Name: v.Name, Kind: Original}
		s.order = append(s.order, v.Name)
	}
	return s
}

// Stmt returns the scheduled statement.
func (s *Schedule) Stmt() *ir.Assignment { return s.stmt }

// Err returns the first error recorded by any command, if any. Commands are
// chainable; once an error occurs subsequent commands are no-ops.
func (s *Schedule) Err() error { return s.err }

func (s *Schedule) fail(format string, args ...any) *Schedule {
	if s.err == nil {
		s.err = fmt.Errorf("schedule: "+format, args...)
	}
	return s
}

// record appends one successfully applied command to the serializable log.
// No-op commands (reorder/distribute/communicate with nothing to do) are not
// recorded: they change nothing and have no textual form.
func (s *Schedule) record(op string, args ...string) {
	switch op {
	case "reorder", "distribute":
		if len(args) == 0 {
			return
		}
	case "communicate":
		if len(args) < 2 {
			return
		}
	}
	s.log = append(s.log, Command{Op: op, Args: args})
}

// Commands returns the log of successfully applied commands: the schedule's
// canonical serializable form. Compound commands (DistributeOnto) appear as
// the primitives they expand to.
func (s *Schedule) Commands() Commands { return append(Commands(nil), s.log...) }

// Var returns the metadata of a variable, or nil if unknown.
func (s *Schedule) Var(name string) *Var { return s.vars[name] }

// Order returns the current loop order, outermost first.
func (s *Schedule) Order() []string { return append([]string(nil), s.order...) }

// Distributed returns the distributed variables in machine-dimension order.
func (s *Schedule) Distributed() []string { return append([]string(nil), s.distributed...) }

// CommAnchor returns the communicate anchor variable for a tensor ("" if
// unset).
func (s *Schedule) CommAnchor(tensor string) string { return s.comm[tensor] }

func (s *Schedule) posOf(name string) int {
	for i, v := range s.order {
		if v == name {
			return i
		}
	}
	return -1
}

func (s *Schedule) checkFresh(names ...string) error {
	for _, n := range names {
		if err := checkToken(n); err != nil {
			return err
		}
		if _, exists := s.vars[n]; exists {
			return fmt.Errorf("variable %s already exists", n)
		}
	}
	return nil
}

// checkToken rejects names the serialization grammar cannot carry, so every
// schedule a fluent chain builds round-trips through String/Parse.
func checkToken(n string) error {
	if n == "" {
		return fmt.Errorf("empty name")
	}
	for _, r := range n {
		if !isTokenRune(r) {
			return fmt.Errorf("name %q contains %q; only letters, digits, '_', '.', '*' serialize", n, string(r))
		}
	}
	return nil
}

// replaceInOrder swaps old (at its position) for the given new names.
func (s *Schedule) replaceInOrder(old string, repl ...string) {
	pos := s.posOf(old)
	out := make([]string, 0, len(s.order)+len(repl)-1)
	out = append(out, s.order[:pos]...)
	out = append(out, repl...)
	out = append(out, s.order[pos+1:]...)
	s.order = out
}

// Divide breaks loop i into c pieces: outer ranges over the pieces, inner
// within a piece of size ceil(extent(i)/c).
func (s *Schedule) Divide(i, outer, inner string, c int) *Schedule {
	if s.err != nil {
		return s
	}
	if s.posOf(i) < 0 {
		return s.fail("divide: unknown or already-transformed variable %s", i)
	}
	if err := s.checkFresh(outer, inner); err != nil {
		return s.fail("divide: %v", err)
	}
	if c <= 0 {
		return s.fail("divide: count must be positive, got %d", c)
	}
	s.vars[outer] = &Var{Name: outer, Kind: DivideOuter, Origin: i, Partner: inner, Param: c}
	s.vars[inner] = &Var{Name: inner, Kind: DivideInner, Origin: i, Partner: outer, Param: c}
	s.replaceInOrder(i, outer, inner)
	s.record("divide", i, outer, inner, fmt.Sprint(c))
	return s
}

// Split breaks loop i into chunks of size size: inner has extent size, outer
// ranges over ceil(extent(i)/size) chunks.
func (s *Schedule) Split(i, outer, inner string, size int) *Schedule {
	if s.err != nil {
		return s
	}
	if s.posOf(i) < 0 {
		return s.fail("split: unknown or already-transformed variable %s", i)
	}
	if err := s.checkFresh(outer, inner); err != nil {
		return s.fail("split: %v", err)
	}
	if size <= 0 {
		return s.fail("split: size must be positive, got %d", size)
	}
	s.vars[outer] = &Var{Name: outer, Kind: SplitOuter, Origin: i, Partner: inner, Param: size}
	s.vars[inner] = &Var{Name: inner, Kind: SplitInner, Origin: i, Partner: outer, Param: size}
	s.replaceInOrder(i, outer, inner)
	s.record("split", i, outer, inner, fmt.Sprint(size))
	return s
}

// Collapse fuses two directly nested loops i (outer) and j (inner) into f:
// f = i*extent(j) + j.
func (s *Schedule) Collapse(i, j, f string) *Schedule {
	if s.err != nil {
		return s
	}
	pi, pj := s.posOf(i), s.posOf(j)
	if pi < 0 || pj < 0 {
		return s.fail("collapse: unknown variable %s or %s", i, j)
	}
	if pj != pi+1 {
		return s.fail("collapse: %s and %s must be directly nested (reorder first)", i, j)
	}
	if err := s.checkFresh(f); err != nil {
		return s.fail("collapse: %v", err)
	}
	s.vars[f] = &Var{Name: f, Kind: Fused, FuseA: i, FuseB: j}
	s.replaceInOrder(i, f)
	s.order = append(s.order[:s.posOf(j)], s.order[s.posOf(j)+1:]...)
	s.record("collapse", i, j, f)
	return s
}

// Reorder rearranges the listed variables into the given relative order,
// keeping unlisted variables at their positions.
func (s *Schedule) Reorder(names ...string) *Schedule {
	if s.err != nil {
		return s
	}
	listed := map[string]bool{}
	for _, n := range names {
		if s.posOf(n) < 0 {
			return s.fail("reorder: unknown or already-transformed variable %s", n)
		}
		if listed[n] {
			return s.fail("reorder: duplicate variable %s", n)
		}
		listed[n] = true
	}
	next := 0
	out := append([]string(nil), s.order...)
	for i, v := range out {
		if listed[v] {
			out[i] = names[next]
			next++
		}
	}
	s.order = out
	s.record("reorder", names...)
	return s
}

// Distribute marks the given variables as distributed onto the machine
// dimensions, in order. Distributed variables must form a prefix of the
// loop order (the outermost loops); multiple calls append to the prefix for
// hierarchical distribution.
func (s *Schedule) Distribute(names ...string) *Schedule {
	if s.err != nil {
		return s
	}
	for _, n := range names {
		if s.posOf(n) < 0 {
			return s.fail("distribute: unknown or already-transformed variable %s", n)
		}
		for _, d := range s.distributed {
			if d == n {
				return s.fail("distribute: variable %s already distributed", n)
			}
		}
		s.distributed = append(s.distributed, n)
	}
	// Validate prefix property.
	for i, d := range s.distributed {
		if i >= len(s.order) || s.order[i] != d {
			return s.fail("distribute: distributed variables %v must be the outermost loops (order is %v)",
				s.distributed, s.order)
		}
	}
	s.record("distribute", names...)
	return s
}

// Rotate replaces target t (a sequential loop) with r such that
// t = (r + sum(I)) mod extent(t): each combination of the I variables starts
// its iteration of t at a different offset, producing systolic communication
// (§3.3).
func (s *Schedule) Rotate(t string, offsets []string, r string) *Schedule {
	if s.err != nil {
		return s
	}
	if s.posOf(t) < 0 {
		return s.fail("rotate: unknown or already-transformed variable %s", t)
	}
	if err := s.checkFresh(r); err != nil {
		return s.fail("rotate: %v", err)
	}
	for _, o := range offsets {
		if s.posOf(o) < 0 {
			return s.fail("rotate: offset variable %s not in the loop order", o)
		}
		if s.posOf(o) > s.posOf(t) {
			return s.fail("rotate: offset variable %s must be outside %s", o, t)
		}
	}
	s.vars[r] = &Var{Name: r, Kind: Rotated, Origin: t, RotateOffsets: append([]string(nil), offsets...)}
	s.replaceInOrder(t, r)
	s.record("rotate", append(append([]string{t}, offsets...), r)...)
	return s
}

// Communicate anchors the communication of the named tensors at variable v:
// the data each processor needs for all iterations nested under one
// iteration of v is aggregated into a single transfer (§3.3).
func (s *Schedule) Communicate(v string, tensors ...string) *Schedule {
	if s.err != nil {
		return s
	}
	if s.posOf(v) < 0 {
		return s.fail("communicate: unknown or already-transformed variable %s", v)
	}
	names := map[string]bool{}
	for _, n := range s.stmt.TensorNames() {
		names[n] = true
	}
	for _, t := range tensors {
		if !names[t] {
			return s.fail("communicate: tensor %s not in statement", t)
		}
		s.comm[t] = v
	}
	s.record("communicate", append([]string{v}, tensors...)...)
	return s
}

// Parallelize marks a (leaf) loop for thread-level parallel execution. In
// this implementation leaf processors are modeled at their full parallel
// throughput, so Parallelize is validated and recorded in the command log
// (and so in String and the plan key) but changes neither the lowering nor
// the cost model; it is kept for schedule compatibility.
func (s *Schedule) Parallelize(v string) *Schedule {
	if s.err != nil {
		return s
	}
	if s.posOf(v) < 0 {
		return s.fail("parallelize: unknown or already-transformed variable %s", v)
	}
	s.record("parallelize", v)
	return s
}

// Substitute declares that the loops over the given (innermost) variables
// are implemented by an optimized leaf kernel (e.g. a vendor GEMM). The
// variables must be the innermost loops. The compiled kernel lowers every
// leaf itself, so like Parallelize this is validated and recorded in the
// command log but changes no lowering.
func (s *Schedule) Substitute(vars []string, kernel string) *Schedule {
	if s.err != nil {
		return s
	}
	if len(vars) == 0 || len(vars) > len(s.order) {
		return s.fail("substitute: bad variable list %v", vars)
	}
	tail := s.order[len(s.order)-len(vars):]
	set := map[string]bool{}
	for _, v := range vars {
		set[v] = true
	}
	for _, v := range tail {
		if !set[v] {
			return s.fail("substitute: variables %v are not the innermost loops (order %v)", vars, s.order)
		}
	}
	if err := checkToken(kernel); err != nil {
		return s.fail("substitute: kernel: %v", err)
	}
	s.record("substitute", append(append([]string{}, vars...), kernel)...)
	return s
}

// DistributeOnto is the compound command of §3.3: for each machine
// dimension d it divides targets[d] into dist[d] (outer) and local[d]
// (inner) by the machine extent, reorders so all dist variables are
// outermost (followed by the locals), and distributes the dist variables.
func (s *Schedule) DistributeOnto(targets, dist, local []string, gridDims []int) *Schedule {
	if s.err != nil {
		return s
	}
	if len(targets) != len(dist) || len(dist) != len(local) || len(targets) != len(gridDims) {
		return s.fail("DistributeOnto: argument lists must have equal length")
	}
	for d := range targets {
		s.Divide(targets[d], dist[d], local[d], gridDims[d])
	}
	s.Reorder(append(append([]string(nil), dist...), local...)...)
	s.Distribute(dist...)
	return s
}

// String renders the schedule in its serializable command form, e.g.
//
//	divide(i,io,ii,4) reorder(io,jo,ii,ji) distribute(io,jo) communicate(jo,A)
//
// Parse of the result applied to a fresh schedule over the same statement
// reproduces this schedule exactly (see Apply).
func (s *Schedule) String() string { return s.log.String() }

// Notation renders the scheduled statement in concrete index notation
// (§5.1, Fig. 14 of the DISTAL paper): one forall per loop-order variable,
// outermost first, around the assignment, then the transformations that
// produced the loops as "s.t." relations, e.g.
//
//	forall io forall ii forall j forall k A(i,j) = B(i,k) * C(k,j) s.t. divide(i,io,ii,4)
//
// Relations come in a stable order: variable derivations (in loop order of
// their outer result), then distribute, then communicate.
//
// A statement with no index variables has no loops: it renders bare.
func (s *Schedule) Notation() string {
	var b strings.Builder
	for _, v := range s.order {
		fmt.Fprintf(&b, "forall %s ", v)
	}
	b.WriteString(s.stmt.String())
	sep := " s.t. "
	rel := func(format string, args ...any) {
		b.WriteString(sep)
		fmt.Fprintf(&b, format, args...)
		sep = ", "
	}
	seen := map[string]bool{}
	for _, name := range s.order {
		v := s.vars[name]
		if seen[v.Name] {
			continue
		}
		switch v.Kind {
		case DivideOuter:
			rel("divide(%s,%s,%s,%d)", v.Origin, v.Name, v.Partner, v.Param)
			seen[v.Partner] = true
		case DivideInner:
			rel("divide(%s,%s,%s,%d)", v.Origin, v.Partner, v.Name, v.Param)
			seen[v.Partner] = true
		case SplitOuter:
			rel("split(%s,%s,%s,%d)", v.Origin, v.Name, v.Partner, v.Param)
			seen[v.Partner] = true
		case SplitInner:
			rel("split(%s,%s,%s,%d)", v.Origin, v.Partner, v.Name, v.Param)
			seen[v.Partner] = true
		case Fused:
			rel("collapse(%s,%s,%s)", v.FuseA, v.FuseB, v.Name)
		case Rotated:
			rel("rotate(%s,{%s},%s)", v.Origin, strings.Join(v.RotateOffsets, ","), v.Name)
		}
		seen[v.Name] = true
	}
	if len(s.distributed) > 0 {
		rel("distribute(%s)", strings.Join(s.distributed, ","))
	}
	for _, t := range s.stmt.TensorNames() {
		if a := s.comm[t]; a != "" {
			rel("communicate(%s,%s)", t, a)
		}
	}
	return b.String()
}
