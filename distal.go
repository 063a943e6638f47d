// Package distal is a Go implementation of DISTAL, the distributed tensor
// algebra compiler of Yadav, Aiken, and Kjolstad (PLDI 2022). It compiles
// tensor index notation statements — together with independent
// specifications of how data (tensor distribution notation) and computation
// (a scheduling language) map onto a target machine — into programs for a
// Legion-like distributed task-based runtime, and executes them either on
// real data (for validation) or on a simulated supercomputer (for the
// paper's performance experiments).
//
// The entry point is a Session: a long-lived object owning a target
// machine, a default cost model, and an LRU cache of compiled plans.
// Compile once into an immutable Plan, execute many times:
//
//	m := distal.NewMachine(distal.CPU, gx, gy)
//	sess := distal.NewSession(m)
//	plan, _ := sess.Compile(ctx, distal.Request{
//	    Stmt:     "A(i,j) = B(i,k) * C(k,j)",
//	    Shapes:   map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
//	    Formats:  map[string]string{"A": "xy->xy", "B": "xy->xy", "C": "xy->xy"},
//	    Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) " +
//	        "distribute(io,jo) split(k,ko,ki,256) reorder(io,jo,ko,ii,ji,ki) " +
//	        "communicate(jo,A) communicate(ko,B,C)",
//	})
//	res, _ := plan.Simulate(ctx)          // analysis: task graph, no data
//	res, _ = plan.Bind(A, B, C).Run(ctx)  // real data, bound per execution
//
// A Request is pure data — statement, shapes, formats, and schedule are all
// text — so workloads can be stored, shipped over the wire, and emitted by
// autotuners. Re-compiling a request with the same statement, shapes,
// formats, schedule, and machine hits the session's plan cache and skips
// compilation entirely; concurrent identical compiles collapse into one
// (singleflight); a cached Plan is safe for concurrent Simulate and
// Bind.Run. Contexts cancel compilation and execution promptly, and
// failures at the API boundary are *Error values classified by stage
// (KindParse, KindSchedule, KindCompile, KindExec, KindCanceled).
// cmd/distal-serve exposes all of this over HTTP/JSON (see internal/serve).
//
// A Request may instead list several statements in Stmts, whose
// intermediates feed later statements. Compile turns either form into one
// Plan type: a single statement is a one-stage plan, a list a DAG of stages
// whose intermediates stay distributed in between. Every plan binds and runs
// alike: Bind returns a Binding, BindBatch and BindStacked a BatchBinding,
// and a Binding is a BatchBinding of one instance.
//
// For programmatic construction, the fluent layer mirrors Figure 2 of the
// paper. A computation compiles as the Request it spells, so it shares the
// cached Plan of the equivalent Request:
//
//	f := distal.Tiled(2)                              // rank-2 tiling, xy -> xy
//	A := distal.NewTensor("A", f, n, n).Zero()
//	B := distal.NewTensor("B", f, n, n).FillRandom(1)
//	C := distal.NewTensor("C", f, n, n).FillRandom(2)
//	comp, _ := sess.Define("A(i,j) = B(i,k) * C(k,j)", A, B, C)
//	comp.Schedule().
//	    DistributeOnto([]string{"i","j"}, []string{"io","jo"}, []string{"ii","ji"}).
//	    Split("k", "ko", "ki", 256).
//	    Reorder("ko", "ii", "ji", "ki").
//	    Communicate("jo", "A").
//	    Communicate("ko", "B", "C")
//	plan, _ := comp.Compile(ctx)                      // plan-cached via sess
//	res, _ := plan.Bind(A, B, C).Run(ctx)             // or plan.Simulate(ctx)
//
// Fluent schedules serialize to command text with Computation.ScheduleText
// and parse back with Computation.ApplySchedule, so the two styles
// round-trip.
package distal

import (
	"context"
	"fmt"

	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/machine"
	"distal/internal/request"
	"distal/internal/schedule"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// ProcessorKind selects what kind of leaf processor a machine is built from.
type ProcessorKind int

const (
	// CPU processors keep data in system memory.
	CPU ProcessorKind = iota
	// GPU processors keep data in framebuffer memory and communicate over
	// NVLink within a node.
	GPU
)

// Machine is a target machine: a grid of abstract processors (§3.1).
type Machine struct {
	M *machine.Machine
}

// NewMachine builds a flat machine: a grid of CPU sockets or GPUs.
func NewMachine(kind ProcessorKind, dims ...int) *Machine {
	mem, proc := machine.SysMem, machine.CPU
	if kind == GPU {
		mem, proc = machine.GPUFBMem, machine.GPU
	}
	return &Machine{M: machine.New(machine.NewGrid(dims...), mem, proc)}
}

// WithProcsPerNode declares that consecutive processors share a physical
// node in groups of n (e.g. 4 GPUs per Lassen node); it affects which links
// communication uses.
func (m *Machine) WithProcsPerNode(n int) *Machine {
	return &Machine{M: m.M.WithProcsPerNode(n)}
}

// Grid returns the machine's grid dimensions.
func (m *Machine) Grid() []int { return m.M.Grid.Dims }

// Processors returns the total number of leaf processors.
func (m *Machine) Processors() int { return m.M.LeafCount() }

// Format describes how a tensor is stored and distributed (§3.2): the
// tensor's distribution onto the machine, expressed in tensor distribution
// notation.
type Format struct {
	Placement *distnot.Placement
}

// ParseFormat parses tensor distribution notation, e.g. "xy->xy" (tiles),
// "xy->x" (rows), "xy->xy0" (fixed to a face), "xy->xy*" (replicated along
// a dimension), with ";" separating hierarchy levels.
func ParseFormat(src string) (Format, error) {
	p, err := distnot.ParsePlacement(src)
	if err != nil {
		return Format{}, err
	}
	return Format{Placement: p}, nil
}

// MustFormat is ParseFormat but panics on error.
func MustFormat(src string) Format {
	f, err := ParseFormat(src)
	if err != nil {
		panic(err)
	}
	return f
}

// Tiled returns the canonical blocked tiling of a rank-r tensor over a
// rank-r machine (T x1..xr -> x1..xr M).
func Tiled(rank int) Format { return Format{Placement: request.Tiled(rank)} }

// Tensor declares a dense tensor with a format. Data is allocated lazily by
// Bind or Fill*.
type Tensor struct {
	Name   string
	Shape  []int
	Format Format
	Data   *tensor.Dense
}

// NewTensor declares a tensor; a scalar is declared with shape (1).
func NewTensor(name string, f Format, shape ...int) *Tensor {
	return &Tensor{Name: name, Shape: append([]int(nil), shape...), Format: f}
}

// Bind attaches real data for validated execution.
func (t *Tensor) Bind(d *tensor.Dense) *Tensor {
	t.Data = d
	return t
}

// FillRandom allocates data and fills it deterministically from seed.
func (t *Tensor) FillRandom(seed int64) *Tensor {
	t.Data = tensor.New(t.Name, t.Shape...)
	t.Data.FillRandom(seed)
	return t
}

// Zero allocates zeroed data (the usual state for outputs).
func (t *Tensor) Zero() *Tensor {
	t.Data = tensor.New(t.Name, t.Shape...)
	return t
}

// Computation is a tensor index notation statement over declared tensors
// on a session's machine. Only the tensors' shapes and formats enter
// compilation; data attached to them is bound per execution through
// Plan.Bind.
type Computation struct {
	Stmt    *ir.Assignment
	Machine *Machine
	tensors map[string]*Tensor
	sched   *schedule.Schedule
	sess    *Session
}

// Schedule returns the computation's schedule for fluent transformation.
func (c *Computation) Schedule() *Sched { return &Sched{c: c} }

// Sched is the fluent scheduling interface (§3.3). All commands delegate to
// the underlying scheduling language; errors are sticky and surface at
// Compile.
type Sched struct {
	c *Computation
}

// Divide breaks loop i into c pieces (outer ranges over pieces).
func (s *Sched) Divide(i, outer, inner string, c int) *Sched {
	s.c.sched.Divide(i, outer, inner, c)
	return s
}

// Split breaks loop i into chunks of the given size.
func (s *Sched) Split(i, outer, inner string, size int) *Sched {
	s.c.sched.Split(i, outer, inner, size)
	return s
}

// Reorder rearranges the listed loops into the given relative order.
func (s *Sched) Reorder(vars ...string) *Sched {
	s.c.sched.Reorder(vars...)
	return s
}

// Collapse fuses two directly nested loops.
func (s *Sched) Collapse(i, j, f string) *Sched {
	s.c.sched.Collapse(i, j, f)
	return s
}

// Distribute maps the given (outermost) loops onto the machine grid.
func (s *Sched) Distribute(vars ...string) *Sched {
	s.c.sched.Distribute(vars...)
	return s
}

// DistributeOnto is the compound tile-and-distribute command of §3.3, using
// the computation's machine grid extents.
func (s *Sched) DistributeOnto(targets, dist, local []string) *Sched {
	s.c.sched.DistributeOnto(targets, dist, local, s.c.Machine.M.LeafGrid().Dims)
	return s
}

// Rotate replaces loop t with r where t = (r + sum(offsets)) mod extent(t),
// producing systolic communication.
func (s *Sched) Rotate(t string, offsets []string, r string) *Sched {
	s.c.sched.Rotate(t, offsets, r)
	return s
}

// Communicate aggregates the tensors' communication at loop v.
func (s *Sched) Communicate(v string, tensors ...string) *Sched {
	s.c.sched.Communicate(v, tensors...)
	return s
}

// Parallelize marks a leaf loop as thread-parallel.
func (s *Sched) Parallelize(v string) *Sched {
	s.c.sched.Parallelize(v)
	return s
}

// Substitute declares the innermost loops are implemented by an optimized
// leaf kernel.
func (s *Sched) Substitute(vars []string, kernel string) *Sched {
	s.c.sched.Substitute(vars, kernel)
	return s
}

// Err returns the first scheduling error, if any.
func (s *Sched) Err() error { return s.c.sched.Err() }

// Compile lowers the computation to a Plan by compiling the Request it
// spells — its statement, tensor shapes and formats, and schedule as text —
// through Session.Compile: a computation that names the same program as an
// earlier compile, fluent or Request, shares its plan without re-running
// the compiler. Run the plan on the computation's tensors with
// Bind(...).Run. A sticky scheduling error, or a computation with no
// scheduling commands, surfaces here as KindSchedule; a tensor with a zero
// Format as KindParse; cancellation of ctx as KindCanceled.
func (c *Computation) Compile(ctx context.Context) (*Plan, error) {
	req, err := c.request()
	if err != nil {
		return nil, err
	}
	return c.sess.Compile(ctx, req)
}

// request renders the computation as the Request it compiles as. A request
// cannot spell a zero Format (no placement) nor an empty schedule (which it
// reads as AutoSchedule), so both are rejected here rather than compiled as
// something else.
func (c *Computation) request() (Request, error) {
	if err := c.sched.Err(); err != nil {
		return Request{}, wrapErr(KindSchedule, "compile", err)
	}
	sched := c.sched.String()
	if sched == "" {
		return Request{}, wrapErr(KindSchedule, "compile",
			fmt.Errorf("computation has no schedule (call AutoSchedule or ApplySchedule)"))
	}
	names := c.Stmt.TensorNames()
	req := Request{
		Stmt:     c.Stmt.String(),
		Shapes:   make(map[string][]int, len(names)),
		Formats:  make(map[string]string, len(names)),
		Schedule: sched,
	}
	for _, name := range names {
		t := c.tensors[name]
		if t.Format.Placement == nil {
			return Request{}, wrapErr(KindParse, "compile",
				fmt.Errorf("tensor %s has a zero Format (use ParseFormat or Tiled)", name))
		}
		req.Shapes[name] = t.Shape
		req.Formats[name] = t.Format.Placement.String()
	}
	return req, nil
}

// Result re-exports the runtime's execution summary.
type Result = legion.Result

// CopyRecord re-exports one scheduled copy of a traced execution.
type CopyRecord = legion.CopyRecord

// SortTrace orders trace records by start time for display.
func SortTrace(t []CopyRecord) { legion.SortTrace(t) }

// Params re-exports the simulator cost model.
type Params = sim.Params

// ExecOption modifies one execution of a compiled program (tracing,
// synchronous mode, owner-only copies, ...).
type ExecOption = legion.Option

// WithTrace records every copy for inspection in Result.Trace.
func WithTrace() ExecOption { return legion.WithTrace() }

// WithSynchronous disables communication/computation overlap, modeling
// non-overlapping baselines.
func WithSynchronous() ExecOption { return legion.WithSynchronous() }

// WithOwnerOnly restricts copy sources to persistent owner instances.
func WithOwnerOnly() ExecOption { return legion.WithOwnerOnly() }

// WithTransientWindow sets how many transient instances per (region, leaf)
// stay live for reuse.
func WithTransientWindow(n int) ExecOption { return legion.WithTransientWindow(n) }

// WithRealWorkers bounds the worker pool executing Real-mode leaf kernels
// (independent tasks of a launch run concurrently). Zero, the default, uses
// min(GOMAXPROCS, 16); 1 runs kernels serially. Results and simulated
// metrics are identical at any setting.
func WithRealWorkers(n int) ExecOption { return legion.WithRealWorkers(n) }

// LassenCPU returns the per-socket CPU cost model of the paper's testbed
// (each Lassen node has two sockets; DISTAL reserves cores for the
// runtime).
func LassenCPU() Params { return sim.LassenCPU() }

// LassenGPU returns the per-GPU cost model of the paper's testbed.
func LassenGPU() Params { return sim.LassenGPU() }
