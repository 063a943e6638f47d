package distal

import (
	"context"
	"fmt"

	"distal/internal/tensor"
)

// BatchBinding is a Plan bound to N independent problem instances: the
// executable form of a batched Real-mode workload. One execution replays the
// plan's one analysis — requirement lookup, accounting and task grouping are
// shared by the whole batch and by every later run — while leaf kernels run
// per instance over the worker pool. Instances never serialize against each
// other, and every
// instance's output is bit-identical to a single-instance Bind(...).Run on
// the same data.
//
// Build one with Plan.BindBatch (per-instance tensor sets) or
// Plan.BindStacked (one contiguous leading-batch-dim tensor per input).
type BatchBinding struct {
	plan  *Plan
	insts []map[string]*tensor.Dense
	outs  []*Tensor
	err   error
}

// BindBatch attaches real data for N problem instances, one tensor set per
// instance. Each instance is validated exactly as Bind validates a single
// data set (every tensor bound, shapes matching the compiled plan). The
// output tensor of each instance must be distinct from every tensor of
// every other instance — instances execute concurrently, and a shared
// output would race. Binding errors surface at Run.
func (p *Plan) BindBatch(instances ...[]*Tensor) *BatchBinding {
	bb := &BatchBinding{plan: p}
	if len(instances) == 0 {
		bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf("empty batch: bind at least one instance"))
		return bb
	}
	for i, ts := range instances {
		b := p.Bind(ts...)
		if b.err != nil {
			bb.err = &Error{Kind: KindOf(b.err), Op: "bind-batch", Err: fmt.Errorf("instance %d: %w", i, b.err)}
			return bb
		}
		bb.insts = append(bb.insts, b.data)
		bb.outs = append(bb.outs, b.out)
	}
	// Instances run in parallel: an output tensor shared with any tensor of
	// another instance would be written while that instance reads or writes
	// it.
	out := p.data.output
	for i, inst := range bb.insts {
		for j, other := range bb.insts {
			if i == j {
				continue
			}
			for name, d := range other {
				if inst[out] == d {
					bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf(
						"instance %d output %s shares data with instance %d tensor %s: outputs must be private to their instance", i, out, j, name))
					return bb
				}
			}
		}
	}
	return bb
}

// BindStacked attaches real data for batch problem instances stored
// contiguously along a leading batch dimension, Tensor-Go style: each
// stacked tensor has shape [batch, d0, d1, ...] where [d0, d1, ...] is the
// plan's shape for that tensor, and instance i is the zero-copy slice
// data[i*vol : (i+1)*vol]. The stacked output tensor receives every
// instance's result in its slice — one allocation in, one allocation out.
func (p *Plan) BindStacked(batch int, stacked ...*Tensor) *BatchBinding {
	bb := &BatchBinding{plan: p}
	if batch <= 0 {
		bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf("batch must be positive, got %d", batch))
		return bb
	}
	instances := make([][]*Tensor, batch)
	for _, t := range stacked {
		shape := p.Shape(t.Name)
		if shape == nil {
			bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf("plan has no tensor %s", t.Name))
			return bb
		}
		if t.Data == nil {
			bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf("stacked tensor %s has no data", t.Name))
			return bb
		}
		want := append([]int{batch}, shape...)
		got := t.Data.Shape()
		if len(got) != len(want) {
			bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf(
				"stacked tensor %s has rank %d, want %d (leading batch dim over the plan shape %v)", t.Name, len(got), len(want), shape))
			return bb
		}
		for d := range want {
			if got[d] != want[d] {
				bb.err = wrapErr(KindExec, "bind-batch", fmt.Errorf(
					"stacked tensor %s has shape %v, want %v (batch %d over the plan shape %v)", t.Name, got, want, batch, shape))
				return bb
			}
		}
		vol := 1
		for _, s := range shape {
			vol *= s
		}
		data := t.Data.Data()
		for i := 0; i < batch; i++ {
			view := tensor.FromData(t.Name, data[i*vol:(i+1)*vol], shape...)
			instances[i] = append(instances[i], &Tensor{Name: t.Name, Shape: shape, Format: t.Format, Data: view})
		}
	}
	return p.BindBatch(instances...)
}

// Len returns the number of bound instances (0 when the binding failed).
func (bb *BatchBinding) Len() int { return len(bb.insts) }

// Output returns instance i's bound output tensor (after Run it holds that
// instance's result), or nil when the binding failed or i is out of range.
// For stacked bindings the tensor is a zero-copy view into the stacked
// output's slice i.
func (bb *BatchBinding) Output(i int) *Tensor {
	if bb.err != nil || i < 0 || i >= len(bb.outs) {
		return nil
	}
	return bb.outs[i]
}

// Run executes the plan on every bound instance and returns one Result per
// instance. The simulated-time accounting is the plan's one analysis —
// batching never perturbs the cost model — so the Results share identical
// metrics, each equal to a single-instance run's. Real leaf kernels fan out
// per (instance × task group) over the worker pool (bound by
// WithRealWorkers). It aborts with KindCanceled at the runtime's next
// checkpoint once ctx is done (every instance's output is then in an
// unspecified partial state).
func (bb *BatchBinding) Run(ctx context.Context, opts ...ExecOption) ([]*Result, error) {
	if bb.err != nil {
		return nil, bb.err
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "run-batch", err)
	}
	pd := bb.plan.data
	res, err := pd.tape.execute(ctx, pd.stages, bb.plan.execParams(), bb.insts, opts)
	if err != nil {
		return nil, wrapErr(KindExec, "run-batch", err)
	}
	out := make([]*Result, len(bb.insts))
	for i := range out {
		r := *res
		out[i] = &r
	}
	return out, nil
}
