package distal

import (
	"fmt"
	"strings"
	"time"

	"distal/internal/core"
	"distal/internal/legion"
)

// planData is the immutable payload a Plan wraps: a statement's is what the
// plan cache stores under its plan key, its compiled program as the one
// stage it runs as plus the metadata a service reports; a statement list's
// is a DAG of stages pointing at cached statement payloads. Every handle
// resolved to a payload shares it; only the runner's tape, which fills
// once, and its intermediate pool change after compilation.
type planData struct {
	runner
	key      string
	keys     []string // the plan-cache entries it resolves through: its own, or its stages'
	bound    []string // what a caller binds, in frame order
	launches int
	points   int // total index-launch domain points

	// A statement's own program and metadata; a list's are its stage 0's.
	prog         *legion.Program
	scheduleText string
	notation     string

	// A list's stages in execution order, inserted repartitions included;
	// nil for a statement, which is its own one stage.
	stages []planStage
}

// planStage is one stage of a list's DAG: a statement's cached payload —
// a source statement's or an inserted repartition's — with the handoffs
// wiring it to earlier stages.
type planStage struct {
	stmt    *planData
	stats   CompileStats // how the compile that built the DAG got stmt
	inherit []legion.Handoff
	output  string // this stage's LHS region: allocated per execution
	repart  bool   // an inserted repartition, not a source statement
}

// newPlanData wraps a program freshly compiled from in with the input's
// descriptive metadata for caching. Every tensor of the statement is bound
// by the caller.
func newPlanData(params Params, key string, in core.Input, prog *legion.Program) *planData {
	inputs := make([]slot, len(prog.Regions))
	for i, r := range prog.Regions {
		inputs[i] = slot{name: r.Name, shape: r.Shape}
	}
	pd := &planData{
		runner:       newRunner(params, []legion.Stage{{Prog: prog}}, inputs, nil, in.Stmt.LHS.Tensor),
		key:          key,
		keys:         []string{key},
		bound:        in.Stmt.TensorNames(),
		launches:     len(prog.Launches),
		prog:         prog,
		scheduleText: in.Schedule.String(),
		notation:     in.Schedule.Notation(),
	}
	for _, l := range prog.Launches {
		pd.points += l.Domain.Size()
	}
	return pd
}

// CompileStats describes how one Compile call was satisfied.
type CompileStats struct {
	// Cached reports the plan was served without running the compiler:
	// from the plan cache, the request memo, or a shared in-flight compile
	// (for a statement list, for every stage).
	Cached bool
	// Shared reports the plan came from a concurrent identical Compile call
	// (singleflight): this caller waited for the leader instead of
	// compiling. Shared implies Cached.
	Shared bool
	// CompileTime is the wall time the compiler ran for this call; zero
	// when Cached.
	CompileTime time.Duration
	// Launches and Points are the program's size: index launches and total
	// launch-domain points, summed over a list's stages.
	Launches int
	Points   int
}

// Plan is an immutable compiled workload: the unit a service compiles once,
// caches, and executes many times. A single statement compiles to a
// one-stage plan, a statement list to a DAG of stages whose intermediates
// stay distributed in between, moved owner-to-owner by an inserted
// repartition stage where producer and consumer formats disagree.
//
// A Plan never holds data — Simulate walks the task graph under the cost
// model, and Bind attaches caller-owned tensors per execution — so one Plan
// is safe for concurrent use from any number of goroutines. The first Real
// run analyses the task graph once for every later run of the plan, from any
// handle the session hands out.
//
// The lifecycle is Compile → (Simulate | Bind.Run)*, whether the plan comes
// from a Request or a fluent Computation:
//
//	plan, err := sess.Compile(ctx, req)             // or comp.Compile(ctx)
//	res, err := plan.Simulate(ctx)                  // analysis, no data
//	res, err := plan.Bind(a, b, c).Run(ctx)        // real execution
type Plan struct {
	*planData
	stats CompileStats
}

// Key returns the plan's cache key. A one-stage plan's key is its
// statement's content hash over statement, shapes, formats, schedule text,
// and machine (see core.PlanKey); a plan of several stages hashes the stage
// keys in execution order, repartitions included. Two plans with equal keys
// execute the same program.
func (p *Plan) Key() string { return p.key }

// ScheduleText returns stage 0's schedule in serializable command form.
func (p *Plan) ScheduleText() string { return p.scheduleText }

// Notation returns the concrete index notation of stage 0's scheduled
// statement (the loop structure the compiler lowered, §5.1).
func (p *Plan) Notation() string { return p.notation }

// Stats reports how this Compile call was satisfied and the program's size.
func (p *Plan) Stats() CompileStats { return p.stats }

// Inputs returns the tensors a caller binds, in the wire frame order of
// POST /v1/run: a single statement's every tensor in statement order (LHS
// first, then RHS tensors left to right, duplicates dropped), a statement
// list's leaf inputs in first-use order. The caller must not mutate the
// returned slice.
func (p *Plan) Inputs() []string { return p.bound }

// Tensors returns Inputs.
//
// Deprecated: kept only for benchmark/http.go; ROADMAP item 4's first PR
// deletes it.
func (p *Plan) Tensors() []string { return p.Inputs() }

// Shape returns the compiled shape of the named tensor — bound as
// declared, computed as inferred — or nil when the plan has no tensor of
// that name.
func (p *Plan) Shape(name string) []int {
	if shape := shapeIn(p.inputs, name); shape != nil {
		return shape
	}
	return shapeIn(p.owned, name)
}

// Stages returns the number of execution stages, inserted repartitions
// included: 1 for a single statement.
func (p *Plan) Stages() int { return len(p.runner.stages) }

// Repartitions returns how many explicit layout-change stages the DAG
// carries (zero when every producer/consumer pair agreed on formats).
func (p *Plan) Repartitions() int {
	n := 0
	for _, st := range p.stages {
		if st.repart {
			n++
		}
	}
	return n
}

// StageMeta describes one execution stage of a statement list's DAG for
// reporting surfaces (the serve layer's Distal-Stages header, CLI -v rows):
// static facts only — per-stage wall time lives in the request trace.
type StageMeta struct {
	Output   string
	PlanKey  string
	Cached   bool
	Repart   bool
	Launches int
	Points   int
}

// StageMetas returns one StageMeta per execution stage of a statement
// list's plan, repartitions included, in execution order; none for a single
// statement's plan, whose Key and Stats describe its one stage. A stage is
// Cached when this handle's compile ran no compiler for it: every stage of
// a memo-resolved plan.
func (p *Plan) StageMetas() []StageMeta {
	out := make([]StageMeta, len(p.stages))
	for i, st := range p.stages {
		out[i] = StageMeta{
			Output:   st.output,
			PlanKey:  st.stmt.key,
			Cached:   p.stats.Cached || st.stats.Cached,
			Repart:   st.repart,
			Launches: st.stmt.launches,
			Points:   st.stmt.points,
		}
	}
	return out
}

// Listing renders stage 0's generated program, mirroring the structure of
// the code DISTAL emits: region declarations with their placements, then
// every index launch with its per-point region requirements, listing at
// most maxPoints task points per launch (0 means all).
func (p *Plan) Listing(maxPoints int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q on %s\n", p.prog.Name, p.prog.Machine)
	for _, r := range p.prog.Regions {
		place := "unplaced (leaf 0)"
		if r.Placement != nil {
			place = r.Placement.String()
		}
		fmt.Fprintf(&b, "region %s%v place %s\n", r.Name, r.Shape, place)
	}
	for _, l := range p.prog.Launches {
		fmt.Fprintf(&b, "index_launch %s over %s\n", l.Name, l.Domain)
		n := l.Domain.Size()
		shown := n
		if maxPoints > 0 && maxPoints < n {
			shown = maxPoints
		}
		for i := 0; i < shown; i++ {
			reqs := make([]string, len(l.Regions))
			for t := range reqs {
				reqs[t] = l.Req(i, t).String()
			}
			fmt.Fprintf(&b, "  task%v: %s\n", l.Domain.Delinearize(i), strings.Join(reqs, " "))
		}
		if shown < n {
			fmt.Fprintf(&b, "  ... %d more points\n", n-shown)
		}
	}
	return b.String()
}

// WithCostModel overrides the cost model of one execution (the session's
// default otherwise). It is public API: the in-repository callers simulate
// under their session's cost model, so only tests use it.
func WithCostModel(p Params) ExecOption { return legion.WithParams(p) }
