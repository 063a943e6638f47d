// Package request turns a compile request — statement, shapes, formats and
// schedule, all text — into the compiler's input on a target machine. It is
// the one place a core.Input is assembled: the distal session's compile and
// tune paths, the paper's algorithms and the baseline models all write a
// request and build it here, so an algorithm is a schedule of one statement
// exactly as a client sends it.
package request

import (
	"fmt"

	"distal/internal/core"
	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/program"
	"distal/internal/schedule"
)

// Request is one compile job in pure data form: the statement, tensor
// shapes, tensor formats as distribution notation text, and the schedule as
// scheduling-command text. Requests hold no data.
type Request struct {
	// Stmt is the tensor index notation statement,
	// e.g. "A(i,j) = B(i,k) * C(k,j)".
	Stmt string
	// Shapes gives every tensor's dimensions by name.
	Shapes map[string][]int
	// Formats gives tensor distribution notation per tensor,
	// e.g. "xy->xy"; tensors without an entry default to the canonical
	// tiling of their rank.
	Formats map[string]string
	// Schedule is scheduling-command text,
	// e.g. "divide(i,io,ii,4) reorder(io,ii,j,k) distribute(io) communicate(io,A,B)".
	// Empty means AutoSchedule.
	Schedule string
	// Stmts is the list form of a request: statements whose left-hand
	// sides name intermediates later statements consume, each with its own
	// format annotations and schedule. Shapes then declares the leaf inputs
	// only (intermediate and output shapes are inferred from their
	// producers), and Stmt/Formats/Schedule must be empty. Both forms
	// parse through program.ParseRequest and compile through
	// Session.Compile into a Plan; a single statement is a one-stage
	// program.
	Stmts []program.Statement
}

// Build validates req against machine m and returns its scheduled compile
// input: Unscheduled, then Schedule.
func Build(req Request, m *machine.Machine) (core.Input, error) {
	in, err := Unscheduled(req, m)
	if err != nil {
		return core.Input{}, err
	}
	if err := Schedule(in, req.Schedule); err != nil {
		return core.Input{}, err
	}
	return in, nil
}

// Unscheduled validates req's statement, shapes and formats against machine
// m, as program.ParseRequest parses the statement form, and returns the
// compile input with an empty schedule: every tensor declared at its shape,
// placed by its Formats entry or the canonical tiling of its rank.
func Unscheduled(req Request, m *machine.Machine) (core.Input, error) {
	prog, err := program.ParseRequest(Statement(req), nil, req.Shapes)
	if err != nil {
		return core.Input{}, err
	}
	stmt := prog.Stages[0].Assign
	names := stmt.TensorNames()
	decls := make(map[string]*core.TensorDecl, len(names))
	for _, name := range names {
		p, err := Placement(req.Formats, name, len(req.Shapes[name]))
		if err != nil {
			return core.Input{}, err
		}
		decls[name] = &core.TensorDecl{Name: name, Shape: append([]int(nil), req.Shapes[name]...), Placement: p}
	}
	return core.Input{Stmt: stmt, Machine: m, Tensors: decls, Schedule: schedule.New(stmt)}, nil
}

// Statement returns req's statement form: its statement, formats and
// schedule.
func Statement(req Request) program.Statement {
	return program.Statement{Stmt: req.Stmt, Formats: req.Formats, Schedule: req.Schedule}
}

// Placement resolves the format tensor name is placed under: its Formats
// entry parsed as distribution notation, or the canonical tiling of its rank
// when it has none.
func Placement(formats map[string]string, name string, rank int) (*distnot.Placement, error) {
	if src, ok := formats[name]; ok {
		p, err := distnot.ParsePlacement(src)
		if err != nil {
			return nil, fmt.Errorf("tensor %s: %w", name, err)
		}
		return p, nil
	}
	if rank > len(tiledDims) {
		return nil, fmt.Errorf("tensor %s has rank %d; the default tiling supports ranks up to %d (give a Formats entry)", name, rank, len(tiledDims))
	}
	return Tiled(rank), nil
}

// tiledDims names the dimensions of the canonical tiling, which therefore
// covers ranks up to six.
var tiledDims = []string{"x", "y", "z", "w", "u", "v"}

// Tiled returns the canonical blocked tiling of a rank-r tensor over a
// rank-r machine (T x1..xr -> x1..xr M). It panics above rank 6.
func Tiled(rank int) *distnot.Placement {
	if rank > len(tiledDims) {
		panic("distal: Tiled supports tensors up to rank 6")
	}
	s := &distnot.Statement{}
	for _, name := range tiledDims[:rank] {
		s.TensorDims = append(s.TensorDims, name)
		s.MachineDims = append(s.MachineDims, distnot.MachineName{Kind: distnot.Dim, Var: name})
	}
	return distnot.NewPlacement(s)
}

// Schedule applies scheduling-command text to in's schedule; empty text
// applies the AutoSchedule commands for in's machine instead.
func Schedule(in core.Input, text string) error {
	var cs schedule.Commands
	var err error
	if text == "" {
		cs, err = AutoScheduleCommands(in.Stmt, in.Machine.LeafGrid().Dims)
	} else {
		cs, err = schedule.Parse(text)
	}
	if err != nil {
		return err
	}
	return in.Schedule.Apply(cs).Err()
}

// AutoScheduleCommands derives the owner-computes schedule for stmt on a
// machine with the given grid, as serializable scheduling commands: the
// output tensor's index variables are tiled over the machine grid (one per
// grid dimension, in order) and every tensor's communication is aggregated
// at the task level.
func AutoScheduleCommands(stmt *ir.Assignment, grid []int) (schedule.Commands, error) {
	lhs := stmt.LHS.Indices
	if len(lhs) < len(grid) {
		return nil, fmt.Errorf("distal: AutoSchedule needs >= %d output variables, statement has %d",
			len(grid), len(lhs))
	}
	var cs schedule.Commands
	var dist, local []string
	for d := range grid {
		v := lhs[d].Name
		dist = append(dist, v+"_o")
		local = append(local, v+"_i")
		cs = append(cs, schedule.Command{Op: "divide", Args: []string{v, v + "_o", v + "_i", fmt.Sprint(grid[d])}})
	}
	cs = append(cs,
		schedule.Command{Op: "reorder", Args: append(append([]string{}, dist...), local...)},
		schedule.Command{Op: "distribute", Args: dist},
		schedule.Command{Op: "communicate", Args: append([]string{dist[len(dist)-1]}, stmt.TensorNames()...)},
	)
	return cs, nil
}
