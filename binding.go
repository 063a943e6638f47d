package distal

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"distal/internal/legion"
	"distal/internal/tensor"
)

// runner is the execution half of every plan: a single statement runs as a
// one-stage program, a statement list as its DAG of stages, and both bind,
// run and simulate through the one runner below. Its first Real run analyses
// the stages once for every later run of the plan, from any handle the
// session hands out.
type runner struct {
	params Params
	stages []legion.Stage
	inputs []slot                      // what a caller binds: a statement's every tensor, a list's leaf inputs
	owned  []slot                      // what a binding allocates: a list's intermediates and output
	output string                      // the tensor a run answers with
	build  chan struct{}               // one slot, held while a tape build runs
	tape   atomic.Pointer[legion.Tape] // the Real analysis under the default options
	// scratch pools the intermediates BatchBinding runs borrow: each item is
	// one instance's set, a *[]*tensor.Dense with a tensor per owned slot
	// other than the output.
	scratch sync.Pool
}

// slot is one tensor of a binding with its compiled shape.
type slot struct {
	name  string
	shape []int
}

func newRunner(params Params, stages []legion.Stage, inputs, owned []slot, output string) runner {
	return runner{params: params, stages: stages, inputs: inputs, owned: owned, output: output, build: make(chan struct{}, 1)}
}

// Simulate executes the task graph without data under the session's cost
// model (override with WithCostModel): a program's stages run in order on
// one simulated clock with intermediates handed off in place, and the
// returned metrics (makespan, communication, peak memory) cover every
// stage. It aborts with KindCanceled at the runtime's next cancellation
// checkpoint once ctx is done.
func (r *runner) Simulate(ctx context.Context, opts ...ExecOption) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "simulate", err)
	}
	res, err := legion.RunStages(ctx, r.stages, legion.NewOptions(r.params, opts...))
	if err != nil {
		return nil, wrapErr(KindExec, "simulate", err)
	}
	return res, nil
}

// execute runs the stages on instances under the session's cost model plus
// opts: Execute on the cached tape when opts leave the accounting at its
// defaults, on a fresh analysis when they change it (a cost model, tracing,
// synchronous or owner-only copies, a transient window). It returns the
// analysis' metrics.
func (r *runner) execute(ctx context.Context, instances []map[string]*tensor.Dense, opts []ExecOption) (*Result, error) {
	opt := legion.NewOptions(r.params, opts...)
	opt.Real = true
	var (
		t   *legion.Tape
		err error
	)
	if opt.Accounting() == legion.NewOptions(r.params).Accounting() {
		t, err = r.cachedTape(ctx, opt)
	} else {
		t, err = legion.Analyse(ctx, r.stages, opt)
	}
	if err != nil {
		return nil, err
	}
	if err := t.Execute(ctx, instances, opt.RealWorkers); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// cachedTape returns the cached tape, building it under opt and ctx if there
// is none. Concurrent first runs wait for one build instead of each walking;
// a build that fails or is canceled is not kept, so the next run builds
// afresh.
func (r *runner) cachedTape(ctx context.Context, opt legion.Options) (*legion.Tape, error) {
	if t := r.tape.Load(); t != nil {
		return t, nil
	}
	select {
	case r.build <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.build }()
	if t := r.tape.Load(); t != nil {
		return t, nil // another run built it while this one waited
	}
	t, err := legion.Analyse(ctx, r.stages, opt)
	if err != nil {
		return nil, err
	}
	r.tape.Store(t)
	return t, nil
}

// Output returns the name of the tensor a run answers with: a plan's LHS,
// a program's last statement's LHS.
func (r *runner) Output() string { return r.output }

// shapeIn returns the shape of the slot named name, or nil.
func shapeIn(slots []slot, name string) []int {
	for _, s := range slots {
		if s.name == name {
			return s.shape
		}
	}
	return nil
}

// bindInstance validates one instance's tensors against what actually runs
// — every input bound, each with data of the compiled shape — and allocates
// the tensors the binding owns: the output always, the intermediates only
// when withInter is set (a batch borrows them per run instead). It returns
// the instance's data and output.
func (r *runner) bindInstance(tensors []*Tensor, withInter bool) (map[string]*tensor.Dense, *Tensor, error) {
	data := make(map[string]*tensor.Dense, len(r.inputs)+len(r.owned))
	var out *Tensor
	for _, t := range tensors {
		shape := shapeIn(r.inputs, t.Name)
		switch {
		case shape == nil && shapeIn(r.owned, t.Name) != nil:
			return nil, nil, fmt.Errorf("tensor %s is computed by the program; bind leaf inputs only", t.Name)
		case shape == nil:
			return nil, nil, fmt.Errorf("plan has no tensor %s", t.Name)
		case t.Data == nil:
			return nil, nil, fmt.Errorf("tensor %s has no data (use Zero, FillRandom, or Bind)", t.Name)
		case !slices.Equal(t.Data.Shape(), shape):
			return nil, nil, fmt.Errorf("tensor %s has shape %v, plan wants %v", t.Name, t.Data.Shape(), shape)
		}
		data[t.Name] = t.Data
		if t.Name == r.output {
			out = t
		}
	}
	for _, s := range r.inputs {
		if data[s.name] == nil {
			return nil, nil, fmt.Errorf("no data bound for tensor %s", s.name)
		}
	}
	for _, s := range r.owned {
		if s.name != r.output && !withInter {
			continue
		}
		d := tensor.New(s.name, s.shape...)
		data[s.name] = d
		if s.name == r.output {
			out = &Tensor{Name: s.name, Shape: slices.Clone(s.shape), Data: d}
		}
	}
	return data, out, nil
}

// borrow lends every instance a set of intermediates from the scratch pool,
// cleared (a stage may accumulate into its output), or a fresh zeroed set
// when the pool has none. The caller returns them with giveBack once the run
// is over. A binding that owns at most its output lends nothing.
func (r *runner) borrow(insts []map[string]*tensor.Dense) []*[]*tensor.Dense {
	if len(r.owned) <= 1 {
		return nil
	}
	sets := make([]*[]*tensor.Dense, len(insts))
	for i, inst := range insts {
		set, _ := r.scratch.Get().(*[]*tensor.Dense)
		if set == nil {
			ts := make([]*tensor.Dense, 0, len(r.owned)-1)
			for _, s := range r.owned {
				if s.name != r.output {
					ts = append(ts, tensor.New(s.name, s.shape...))
				}
			}
			set = &ts
		} else {
			for _, d := range *set {
				clear(d.Data())
			}
		}
		for _, d := range *set {
			inst[d.Name()] = d
		}
		sets[i] = set
	}
	return sets
}

// giveBack unbinds the intermediates borrow lent and returns them to the
// pool, so the binding holds no pooled memory between runs.
func (r *runner) giveBack(insts []map[string]*tensor.Dense, sets []*[]*tensor.Dense) {
	for i, set := range sets {
		for _, d := range *set {
			delete(insts[i], d.Name())
		}
		r.scratch.Put(set)
	}
}

// bind fills bb from one tensor set per instance into insts and outs, which
// hold a slot per instance. A batch names the failing instance in its error
// and refuses outputs shared across instances.
func (bb *BatchBinding) bind(r *runner, batch bool, insts []map[string]*tensor.Dense, outs []*Tensor, instances [][]*Tensor) {
	bb.r = r
	op := "bind"
	if batch {
		op = "bind-batch"
	}
	for i, ts := range instances {
		data, out, err := r.bindInstance(ts, !batch)
		if err != nil {
			if batch {
				err = fmt.Errorf("instance %d: %w", i, err)
			}
			bb.err = wrapErr(KindExec, op, err)
			return
		}
		insts[i], outs[i] = data, out
	}
	// Instances run in parallel: an output shared with any tensor of another
	// instance would be written while that instance reads or writes it.
	for i, inst := range insts {
		for j, other := range insts {
			if i == j {
				continue
			}
			for name, d := range other {
				if inst[r.output] == d {
					bb.err = wrapErr(KindExec, op, fmt.Errorf(
						"instance %d output %s shares data with instance %d tensor %s: outputs must be private to their instance", i, r.output, j, name))
					return
				}
			}
		}
	}
	bb.insts, bb.outs, bb.borrows = insts, outs, batch
}

// Bind attaches real data for one execution. The caller binds every tensor
// of a plan, or exactly the leaf inputs of a program — a program's
// intermediates and output are allocated privately by the binding — each
// with data of the compiled shape (allocate with Zero, FillRandom, or Bind).
// The binding lives entirely in the returned Binding: the shared plan is not
// touched, so concurrent executions on different data do not interfere.
// Binding errors surface at Run.
func (r *runner) Bind(tensors ...*Tensor) *Binding {
	b := &Binding{}
	b.bb.bind(r, false, b.inst[:], b.out[:], [][]*Tensor{tensors})
	return b
}

// BindBatch attaches real data for N problem instances, one tensor set per
// instance, each validated exactly as Bind validates a single set. A
// caller-bound output must be distinct from every tensor of every other
// instance — instances execute concurrently, and a shared output would race.
// Binding errors surface at Run.
func (r *runner) BindBatch(instances ...[]*Tensor) *BatchBinding {
	bb := &BatchBinding{r: r}
	if len(instances) == 0 {
		bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf("empty batch: bind at least one instance"))
		return bb
	}
	bb.bind(r, true, make([]map[string]*tensor.Dense, len(instances)), make([]*Tensor, len(instances)), instances)
	return bb
}

// BindStacked attaches real data for batch problem instances stored
// contiguously along a leading batch dimension, Tensor-Go style: each
// stacked tensor has shape [batch, d0, d1, ...] where [d0, d1, ...] is the
// compiled shape of that tensor, and instance i is the zero-copy slice
// data[i*vol : (i+1)*vol]. A stacked output receives every instance's result
// in its slice — one allocation in, one allocation out. It is public API for
// callers that hold batches stacked; nothing in this repository but its
// tests binds that way.
func (r *runner) BindStacked(batch int, stacked ...*Tensor) *BatchBinding {
	if batch <= 0 {
		return &BatchBinding{r: r, err: wrapErr(KindExec, "bind-batch", fmt.Errorf("batch must be positive, got %d", batch))}
	}
	instances := make([][]*Tensor, batch)
	for _, t := range stacked {
		shape := shapeIn(r.inputs, t.Name)
		if shape == nil || t.Data == nil {
			// Not a stack of anything bindable: BindBatch names the error.
			for i := range instances {
				instances[i] = append(instances[i], t)
			}
			continue
		}
		if want := append([]int{batch}, shape...); !slices.Equal(t.Data.Shape(), want) {
			return &BatchBinding{r: r, err: wrapErr(KindExec, "bind-batch", fmt.Errorf(
				"stacked tensor %s has shape %v, want %v (batch %d over the plan shape %v)", t.Name, t.Data.Shape(), want, batch, shape))}
		}
		data := t.Data.Data()
		vol := len(data) / batch
		for i := range instances {
			view := tensor.FromData(t.Name, data[i*vol:(i+1)*vol], shape...)
			instances[i] = append(instances[i], &Tensor{Name: t.Name, Shape: shape, Format: t.Format, Data: view})
		}
	}
	return r.BindBatch(instances...)
}

// BatchBinding is a compiled plan or program bound to N independent problem
// instances: the executable form of a Real-mode workload. One execution
// replays the handle's one analysis — requirement lookup, accounting and
// task grouping are shared by the whole batch and by every later run —
// while leaf kernels run per instance over the worker pool. Instances never
// serialize against each other, and every instance's output is
// bit-identical to a single-instance Bind(...).Run on the same data.
//
// Build one with BindBatch (per-instance tensor sets) or BindStacked (one
// contiguous leading-batch-dim tensor per input). A program's intermediates
// are borrowed from the handle for the length of each Run, so a binding kept
// between runs holds only its outputs; run it from one goroutine at a time.
type BatchBinding struct {
	r       *runner
	insts   []map[string]*tensor.Dense
	outs    []*Tensor
	borrows bool // intermediates come from the runner's pool per run
	err     error
}

// Len returns the number of bound instances (0 when the binding failed).
func (bb *BatchBinding) Len() int { return len(bb.insts) }

// Output returns instance i's output tensor (after Run it holds that
// instance's result), or nil when the binding failed or i is out of range.
// For stacked bindings the tensor is a zero-copy view into the stacked
// output's slice i.
func (bb *BatchBinding) Output(i int) *Tensor {
	if bb.err != nil || i < 0 || i >= len(bb.outs) {
		return nil
	}
	return bb.outs[i]
}

// Run executes every bound instance and returns one Result per instance.
// The simulated-time accounting is the handle's one analysis — batching
// never perturbs the cost model — so the Results share identical metrics,
// each equal to a single-instance run's. Real leaf kernels fan out per
// (instance × task group) over the worker pool (bound by WithRealWorkers).
// It aborts with KindCanceled at the runtime's next checkpoint once ctx is
// done (every instance's output is then in an unspecified partial state).
func (bb *BatchBinding) Run(ctx context.Context, opts ...ExecOption) ([]*Result, error) {
	res, err := bb.run(ctx, "run-batch", opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(bb.insts))
	out[0] = res
	for i := 1; i < len(out); i++ {
		r := *res
		out[i] = &r
	}
	return out, nil
}

func (bb *BatchBinding) run(ctx context.Context, op string, opts []ExecOption) (*Result, error) {
	if bb.err != nil {
		return nil, bb.err
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, op, err)
	}
	if bb.borrows {
		sets := bb.r.borrow(bb.insts)
		defer bb.r.giveBack(bb.insts, sets)
	}
	res, err := bb.r.execute(ctx, bb.insts, opts)
	if err != nil {
		return nil, wrapErr(KindExec, op, err)
	}
	return res, nil
}

// Binding is a compiled plan or program with real data attached for one
// execution: a BatchBinding of one instance. A Binding is cheap; make one
// per data set.
type Binding struct {
	bb BatchBinding
	// inst and out back bb's one-instance slices, so the slices cost no
	// allocation beyond the Binding itself.
	inst [1]map[string]*tensor.Dense
	out  [1]*Tensor
}

// Output returns the output tensor (after Run it holds the result), or nil
// when the binding failed.
func (b *Binding) Output() *Tensor { return b.bb.Output(0) }

// Tensor returns the bound or allocated data of any tensor of the binding —
// inputs, a program's intermediates, and the output alike — or nil for
// unknown names or failed bindings. After Run, an intermediate's tensor
// holds the value its producing stage computed.
func (b *Binding) Tensor(name string) *tensor.Dense {
	if b.bb.err != nil {
		return nil
	}
	return b.inst[0][name]
}

// Run executes the bound data and returns the simulated timing alongside:
// leaf kernels compute on the tensors, a program's stages run in order with
// consumers reading their producers' distributed results in place, and the
// task graph is priced under the session's cost model. It aborts with
// KindCanceled at the runtime's next checkpoint once ctx is done (the output
// and any intermediates are then in an unspecified partial state).
func (b *Binding) Run(ctx context.Context, opts ...ExecOption) (*Result, error) {
	return b.bb.run(ctx, "run", opts)
}
