package distal

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"distal/internal/codegen"
	"distal/internal/legion"
	"distal/internal/tensor"
)

// planData is the immutable payload a Plan wraps and the plan cache stores:
// the compiled runtime program plus the descriptive metadata a service wants
// to report (schedule text, concrete index notation, program size). One
// planData is shared by every Plan handle resolved from the cache; nothing
// in it is mutated after compilation except the tape cache, which fills
// once.
type planData struct {
	prog         *legion.Program
	stages       []legion.Stage // prog as the one stage it runs as
	scheduleText string
	notation     string
	output       string   // LHS tensor/region name
	tensorNames  []string // statement order: LHS first, then RHS left to right
	launches     int
	points       int // total index-launch domain points
	tape         tapeCache
}

func newPlanData(prog *legion.Program, scheduleText, notation, output string, tensorNames []string) *planData {
	pd := &planData{
		prog:         prog,
		stages:       []legion.Stage{{Prog: prog}},
		scheduleText: scheduleText,
		notation:     notation,
		output:       output,
		tensorNames:  tensorNames,
		launches:     len(prog.Launches),
		tape:         newTapeCache(),
	}
	for _, l := range prog.Launches {
		pd.points += l.Domain.Size()
	}
	return pd
}

// tapeCache holds a plan's Real analysis under its default options: built by
// the first Real run, under that run's context, and replayed by every later
// one. Concurrent first runs wait for one build instead of each walking; a
// build that fails or is canceled is not kept, so the next run builds
// afresh.
type tapeCache struct {
	build chan struct{} // one slot, held while a build runs
	tape  atomic.Pointer[legion.Tape]
}

func newTapeCache() tapeCache { return tapeCache{build: make(chan struct{}, 1)} }

// execute runs stages on instances under params plus opts: Execute on the
// cached tape when opts leave the accounting at its defaults, on a fresh
// analysis when they change it (a cost model, tracing, synchronous or
// owner-only copies, a transient window). It returns the analysis' metrics.
func (c *tapeCache) execute(ctx context.Context, stages []legion.Stage, params Params, instances []map[string]*tensor.Dense, opts []ExecOption) (*Result, error) {
	opt := legion.NewOptions(params, opts...)
	opt.Real = true
	var (
		t   *legion.Tape
		err error
	)
	if opt.Accounting() == legion.NewOptions(params).Accounting() {
		t, err = c.get(ctx, stages, opt)
	} else {
		t, err = legion.Analyse(ctx, stages, opt)
	}
	if err != nil {
		return nil, err
	}
	if err := t.Execute(ctx, instances, opt.RealWorkers); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// get returns the cached tape, building it under opt if there is none.
func (c *tapeCache) get(ctx context.Context, stages []legion.Stage, opt legion.Options) (*legion.Tape, error) {
	if t := c.tape.Load(); t != nil {
		return t, nil
	}
	select {
	case c.build <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.build }()
	if t := c.tape.Load(); t != nil {
		return t, nil // another run built it while this one waited
	}
	t, err := legion.Analyse(ctx, stages, opt)
	if err != nil {
		return nil, err
	}
	c.tape.Store(t)
	return t, nil
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
// number of goroutines. The first Real run analyses the task graph once for
// every later run of the plan, from any handle the cache hands out.
//
// The lifecycle is Compile → (Simulate | Bind.Run)*, whether the plan comes
// from a Request or a fluent Computation:
//
//	plan, err := sess.Compile(ctx, req)             // or comp.Compile(ctx)
//	res, err := plan.Simulate(ctx)                  // analysis, no data
//	res, err := plan.Bind(a, b, c).Run(ctx)        // real execution
type Plan struct {
	sess  *Session
	key   string
	data  *planData
	stats CompileStats
}

// Key returns the plan's cache key: a content hash over statement, shapes,
// formats, schedule text, and machine (see core.PlanKey). Two requests with
// equal keys compile to the same program.
func (p *Plan) Key() string { return p.key }

// ScheduleText returns the plan's schedule in serializable command form.
func (p *Plan) ScheduleText() string { return p.data.scheduleText }

// Notation returns the concrete index notation of the scheduled statement
// (the loop structure the compiler lowered, §5.1).
func (p *Plan) Notation() string { return p.data.notation }

// Stats reports how this Compile call was satisfied and the program's size.
func (p *Plan) Stats() CompileStats { return p.stats }

// Tensors returns the names of the statement's tensors in statement order
// (LHS first, then RHS tensors left to right, duplicates dropped) — the
// canonical order wire protocols move tensor data in. The caller must not
// mutate the returned slice.
func (p *Plan) Tensors() []string { return p.data.tensorNames }

// Output returns the name of the statement's LHS tensor: the tensor a real
// execution computes into.
func (p *Plan) Output() string { return p.data.output }

// Shape returns the compiled shape of the named tensor, or nil when the
// plan has no tensor of that name.
func (p *Plan) Shape(name string) []int {
	for _, r := range p.data.prog.Regions {
		if r.Name == name {
			return r.Shape
		}
	}
	return nil
}

// Listing renders the plan's generated program — region declarations with
// their placements, then every index launch with its per-point region
// requirements — listing at most maxPoints task points per launch (0 means
// all).
func (p *Plan) Listing(maxPoints int) string { return codegen.Program(p.data.prog, maxPoints) }

func (p *Plan) execParams() Params {
	if p.sess != nil {
		return p.sess.params
	}
	return LassenCPU()
}

// Simulate executes the plan's task graph without data under the session's
// cost model (override with WithCostModel), returning simulated time,
// communication, and memory statistics. It aborts with KindCanceled at the
// runtime's next cancellation checkpoint once ctx is done.
func (p *Plan) Simulate(ctx context.Context, opts ...ExecOption) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "simulate", err)
	}
	res, err := legion.RunContext(ctx, p.data.prog, legion.NewOptions(p.execParams(), opts...))
	if err != nil {
		return nil, wrapErr(KindExec, "simulate", err)
	}
	return res, nil
}

// Bind attaches real data to the plan for one or more executions. Every
// tensor of the statement must be bound with data (allocate with Zero,
// FillRandom, or Bind), shapes must match the compiled plan, and the
// binding lives entirely in the returned Binding — the shared plan is not
// touched, so concurrent executions on different data do not interfere.
// Binding errors surface at Run.
func (p *Plan) Bind(tensors ...*Tensor) *Binding {
	regions := p.data.prog.Regions
	b := &Binding{plan: p, data: make(map[string]*tensor.Dense, len(regions))}
	for _, t := range tensors {
		shape := p.Shape(t.Name)
		if shape == nil {
			b.err = wrapErr(KindExec, "bind", fmt.Errorf("plan has no tensor %s", t.Name))
			return b
		}
		if t.Data == nil {
			b.err = wrapErr(KindExec, "bind", fmt.Errorf("tensor %s has no data (use Zero, FillRandom, or Bind)", t.Name))
			return b
		}
		if len(t.Shape) != len(shape) {
			b.err = wrapErr(KindExec, "bind", fmt.Errorf("tensor %s has rank %d, plan wants %d", t.Name, len(t.Shape), len(shape)))
			return b
		}
		for d := range shape {
			if t.Shape[d] != shape[d] {
				b.err = wrapErr(KindExec, "bind", fmt.Errorf("tensor %s has shape %v, plan wants %v", t.Name, t.Shape, shape))
				return b
			}
		}
		b.data[t.Name] = t.Data
		if t.Name == p.data.output {
			b.out = t
		}
	}
	for _, r := range regions {
		if _, ok := b.data[r.Name]; !ok {
			b.err = wrapErr(KindExec, "bind", fmt.Errorf("no data bound for tensor %s", r.Name))
			return b
		}
	}
	return b
}

// Binding is a Plan with real data attached: the executable form of one
// Real-mode workload. A Binding is cheap; make one per data set.
type Binding struct {
	plan *Plan
	data map[string]*tensor.Dense
	out  *Tensor
	err  error
}

// Output returns the bound output tensor (after Run it holds the result),
// or nil when the binding failed.
func (b *Binding) Output() *Tensor {
	if b.err != nil {
		return nil
	}
	return b.out
}

// Run executes the plan on the bound data and returns the simulated timing
// alongside: leaf kernels compute on the tensors, reductions flush into the
// output, and the task graph is priced under the session's cost model. It
// aborts with KindCanceled at the runtime's next checkpoint once ctx is
// done (the bound output is then in an unspecified partial state).
func (b *Binding) Run(ctx context.Context, opts ...ExecOption) (*Result, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "run", err)
	}
	pd := b.plan.data
	res, err := pd.tape.execute(ctx, pd.stages, b.plan.execParams(), []map[string]*tensor.Dense{b.data}, opts)
	if err != nil {
		return nil, wrapErr(KindExec, "run", err)
	}
	return res, nil
}

// WithCostModel overrides the cost model of one execution (the session's
// default otherwise).
func WithCostModel(p Params) ExecOption { return legion.WithParams(p) }
