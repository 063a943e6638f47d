package distal

import (
	"time"

	"distal/internal/cin"
	"distal/internal/codegen"
	"distal/internal/core"
	"distal/internal/legion"
)

// planData is the immutable payload a Plan wraps and the plan cache stores:
// the compiled runtime program as the one stage it runs as, plus the
// descriptive metadata a service wants to report (schedule text, concrete
// index notation, program size). One planData is shared by every Plan
// handle resolved from the cache; nothing in it is mutated after
// compilation except the runner's tape, which fills once.
type planData struct {
	runner
	prog         *legion.Program
	scheduleText string
	notation     string
	tensorNames  []string // statement order: LHS first, then RHS left to right
	launches     int
	points       int // total index-launch domain points
}

// newPlanData wraps a program freshly compiled from in with the input's
// descriptive metadata for caching. Every tensor of the statement is bound
// by the caller.
func newPlanData(params Params, in core.Input, prog *legion.Program) *planData {
	inputs := make([]slot, len(prog.Regions))
	for i, r := range prog.Regions {
		inputs[i] = slot{name: r.Name, shape: r.Shape}
	}
	pd := &planData{
		runner:       newRunner(params, []legion.Stage{{Prog: prog}}, inputs, nil, in.Stmt.LHS.Tensor),
		prog:         prog,
		scheduleText: in.Schedule.String(),
		notation:     cin.Build(in.Schedule).String(),
		tensorNames:  in.Stmt.TensorNames(),
		launches:     len(prog.Launches),
	}
	for _, l := range prog.Launches {
		pd.points += l.Domain.Size()
	}
	return pd
}

// CompileStats describes how one Compile call was satisfied.
type CompileStats struct {
	// Cached reports the plan was served without running the compiler:
	// from the plan cache, the request memo, or a shared in-flight compile.
	Cached bool
	// Shared reports the plan came from a concurrent identical Compile call
	// (singleflight): this caller waited for the leader instead of
	// compiling. Shared implies Cached.
	Shared bool
	// CompileTime is the wall time the compiler ran for this call; zero
	// when Cached.
	CompileTime time.Duration
	// Launches and Points are the program's size: index launches and total
	// launch-domain points.
	Launches int
	Points   int
}

// Plan is an immutable compiled workload: the unit a service compiles once,
// caches, and executes many times. A Plan never holds data — Simulate walks
// the task graph under the cost model, and Bind attaches caller-owned
// tensors per execution — so one Plan is safe for concurrent use from any
// number of goroutines. It runs as a one-stage program through the same
// Simulate, Bind, BindBatch and BindStacked as a ProgramPlan; the first Real
// run analyses the task graph once for every later run of the plan, from
// any handle the cache hands out.
//
// The lifecycle is Compile → (Simulate | Bind.Run)*, whether the plan comes
// from a Request or a fluent Computation:
//
//	plan, err := sess.Compile(ctx, req)             // or comp.Compile(ctx)
//	res, err := plan.Simulate(ctx)                  // analysis, no data
//	res, err := plan.Bind(a, b, c).Run(ctx)        // real execution
type Plan struct {
	*planData
	key   string
	stats CompileStats
}

// Key returns the plan's cache key: a content hash over statement, shapes,
// formats, schedule text, and machine (see core.PlanKey). Two requests with
// equal keys compile to the same program.
func (p *Plan) Key() string { return p.key }

// ScheduleText returns the plan's schedule in serializable command form.
func (p *Plan) ScheduleText() string { return p.scheduleText }

// Notation returns the concrete index notation of the scheduled statement
// (the loop structure the compiler lowered, §5.1).
func (p *Plan) Notation() string { return p.notation }

// Stats reports how this Compile call was satisfied and the program's size.
func (p *Plan) Stats() CompileStats { return p.stats }

// Tensors returns the names of the statement's tensors in statement order
// (LHS first, then RHS tensors left to right, duplicates dropped) — the
// canonical order wire protocols move tensor data in. The caller must not
// mutate the returned slice.
func (p *Plan) Tensors() []string { return p.tensorNames }

// Shape returns the compiled shape of the named tensor, or nil when the
// plan has no tensor of that name.
func (p *Plan) Shape(name string) []int { return p.inputShape(name) }

// Listing renders the plan's generated program — region declarations with
// their placements, then every index launch with its per-point region
// requirements — listing at most maxPoints task points per launch (0 means
// all).
func (p *Plan) Listing(maxPoints int) string { return codegen.Program(p.prog, maxPoints) }

// WithCostModel overrides the cost model of one execution (the session's
// default otherwise).
func WithCostModel(p Params) ExecOption { return legion.WithParams(p) }
