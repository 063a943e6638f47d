package distal_test

// Differential tests for batched execution: one cached plan over N problem
// instances must be indistinguishable, instance by instance, from a loop of
// single-instance executions. Bit-identity (not tolerance) is asserted
// against the sequential reference because the batched executor promises the
// same floating-point accumulation order per instance at every worker
// count; a numeric tolerance is used only against the schedule-free
// ir.Evaluate oracle, whose summation order legitimately differs.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distal"
	"distal/internal/algorithms"
	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/tensor"
)

// batchCase is one of the five example workloads at test size: the request
// internal/algorithms writes for the example's algorithm, shrunk so real
// execution stays fast under -race.
type batchCase struct {
	name    string
	machine *distal.Machine
	req     distal.Request
}

func batchCases(t testing.TB) []batchCase {
	var cases []batchCase
	add := func(name string) func(*machine.Machine, distal.Request, error) {
		return func(m *machine.Machine, req distal.Request, err error) {
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, batchCase{name, &distal.Machine{M: m}, req})
		}
	}
	add("summa")(algorithms.MatmulRequest(algorithms.SUMMA, algorithms.MatmulConfig{N: 64, Procs: 16}))
	add("cannon")(algorithms.MatmulRequest(algorithms.Cannon, algorithms.MatmulConfig{N: 48, Procs: 9}))
	add("johnson")(algorithms.MatmulRequest(algorithms.Johnson, algorithms.MatmulConfig{N: 32, Procs: 8}))
	add("mttkrp")(algorithms.MTTKRPRequest(algorithms.HigherConfig{I: 32, J: 32, K: 32, L: 16, Procs: 8}))
	gpus := algorithms.MatmulConfig{GPU: true, ProcsPerNode: 4}
	add("hierarchical")(gpus.MachineFor(2, 8), algorithms.SummaRequest(64, 2, 8, 16), nil)
	return cases
}

// instanceTensors builds one instance's bound tensor set: deterministic
// random inputs keyed by seed and a zero output. Equal seeds always rebuild
// identical data, so the batched run and the sequential reference operate on
// the same values through distinct allocations.
func instanceTensors(plan *distal.Plan, req distal.Request, seed int64) []*distal.Tensor {
	var ts []*distal.Tensor
	for i, name := range plan.Inputs() {
		d := tensor.New(name, req.Shapes[name]...)
		if name != plan.Output() {
			d.FillRandom(seed + int64(i))
		}
		ts = append(ts, &distal.Tensor{Name: name, Shape: req.Shapes[name], Data: d})
	}
	return ts
}

func outputOf(ts []*distal.Tensor, plan *distal.Plan) *tensor.Dense {
	for _, t := range ts {
		if t.Name == plan.Output() {
			return t.Data
		}
	}
	return nil
}

// TestBindBatchMatchesSequential is the batched-execution differential
// suite: for each of the five example workloads, every instance of a
// BindBatch run must be bit-identical to a loop of single Bind(...).Run
// calls on the same data — across batch sizes {1, 3, 8} and worker counts
// {1, 4, 16} — and within 1e-9 of the ir.Evaluate oracle.
func TestBindBatchMatchesSequential(t *testing.T) {
	for _, c := range batchCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sess := distal.NewSession(c.machine)
			plan, err := sess.Compile(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			stmt, err := ir.Parse(c.req.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 3, 8} {
				// Sequential reference: one single-instance run per instance.
				refs := make([]*tensor.Dense, batch)
				oracle := make([]*tensor.Dense, batch)
				for i := 0; i < batch; i++ {
					seed := int64(1000*i + 7)
					ts := instanceTensors(plan, c.req, seed)
					if _, err := plan.Bind(ts...).Run(context.Background()); err != nil {
						t.Fatal(err)
					}
					refs[i] = outputOf(ts, plan)

					inputs := map[string]*tensor.Dense{}
					for _, in := range instanceTensors(plan, c.req, seed) {
						if in.Name != plan.Output() {
							inputs[in.Name] = in.Data
						}
					}
					oracle[i], err = ir.Evaluate(stmt, inputs)
					if err != nil {
						t.Fatal(err)
					}
				}
				for _, workers := range []int{1, 4, 16} {
					t.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(t *testing.T) {
						instances := make([][]*distal.Tensor, batch)
						for i := range instances {
							instances[i] = instanceTensors(plan, c.req, int64(1000*i+7))
						}
						bb := plan.BindBatch(instances...)
						results, err := bb.Run(context.Background(), distal.WithRealWorkers(workers))
						if err != nil {
							t.Fatal(err)
						}
						if len(results) != batch {
							t.Fatalf("got %d results, want %d", len(results), batch)
						}
						for i := 0; i < batch; i++ {
							got := bb.Output(i).Data.Data()
							want := refs[i].Data()
							for v := range got {
								if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
									t.Fatalf("instance %d value %d: batched %v != sequential %v (bit-identical required)",
										i, v, got[v], want[v])
								}
							}
							ev := oracle[i].Data()
							for v := range got {
								if math.Abs(got[v]-ev[v]) > 1e-9 {
									t.Fatalf("instance %d value %d: batched %v, ir.Evaluate %v (tolerance 1e-9)",
										i, v, got[v], ev[v])
								}
							}
						}
					})
				}
			}
		})
	}
}

// TestBindBatchMetricsMatchSingle pins the single-accounting-walk
// invariant: a batched run's simulated metrics are bit-identical to a
// single-instance run's — batching amortizes the walk, it never perturbs
// the cost model.
func TestBindBatchMetricsMatchSingle(t *testing.T) {
	for _, c := range batchCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sess := distal.NewSession(c.machine)
			plan, err := sess.Compile(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			single, err := plan.Bind(instanceTensors(plan, c.req, 7)...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			instances := make([][]*distal.Tensor, 8)
			for i := range instances {
				instances[i] = instanceTensors(plan, c.req, int64(1000*i+7))
			}
			results, err := plan.BindBatch(instances...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Time != single.Time || r.Flops != single.Flops ||
					r.IntraBytes != single.IntraBytes || r.InterBytes != single.InterBytes ||
					r.Copies != single.Copies || r.PeakMemBytes != single.PeakMemBytes {
					t.Fatalf("instance %d metrics %+v != single-instance metrics %+v", i, *r, *single)
				}
			}
		})
	}
}

// TestBindStackedMatchesBindBatch checks the Tensor-Go-style convenience
// path: instances carved from one contiguous leading-batch-dim allocation
// per tensor produce the same outputs as explicitly bound instances, with
// every instance's result landing in its slice of the stacked output.
func TestBindStackedMatchesBindBatch(t *testing.T) {
	c := batchCases(t)[0] // summa
	const batch, n = 3, 64
	sess := distal.NewSession(c.machine)
	plan, err := sess.Compile(context.Background(), c.req)
	if err != nil {
		t.Fatal(err)
	}

	stackedOf := func(name string) *distal.Tensor {
		d := tensor.New(name, batch, n, n)
		return &distal.Tensor{Name: name, Data: d}
	}
	A, B, C := stackedOf("A"), stackedOf("B"), stackedOf("C")
	// Fill each instance slice with the data instanceTensors would build, so
	// the explicit BindBatch reference runs on identical values.
	instances := make([][]*distal.Tensor, batch)
	for i := 0; i < batch; i++ {
		instances[i] = instanceTensors(plan, c.req, int64(1000*i+7))
		for _, src := range instances[i] {
			var dst *distal.Tensor
			switch src.Name {
			case "A":
				dst = A
			case "B":
				dst = B
			case "C":
				dst = C
			}
			copy(dst.Data.Data()[i*n*n:(i+1)*n*n], src.Data.Data())
		}
	}

	bb := plan.BindStacked(batch, A, B, C)
	if _, err := bb.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.BindBatch(instances...).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batch; i++ {
		want := outputOf(instances[i], plan).Data()
		got := A.Data.Data()[i*n*n : (i+1)*n*n]
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("instance %d value %d: stacked %v != explicit %v", i, v, got[v], want[v])
			}
		}
		if out := bb.Output(i); out == nil || &out.Data.Data()[0] != &got[0] {
			t.Fatalf("instance %d: Output(%d) is not a view into the stacked output", i, i)
		}
	}
}

// TestBindBatchValidation exercises the binding-time failure modes: empty
// batches, per-instance bind errors carrying the instance index, stacked
// tensors without the leading batch dimension, and output tensors shared
// between instances (which would race under the parallel drain).
func TestBindBatchValidation(t *testing.T) {
	c := batchCases(t)[0]
	sess := distal.NewSession(c.machine)
	plan, err := sess.Compile(context.Background(), c.req)
	if err != nil {
		t.Fatal(err)
	}
	assertErr := func(t *testing.T, bb *distal.BatchBinding, want string) {
		t.Helper()
		_, err := bb.Run(context.Background())
		if err == nil {
			t.Fatalf("Run succeeded, want error containing %q", want)
		}
		if got := err.Error(); !strings.Contains(got, want) {
			t.Fatalf("error %q does not mention %q", got, want)
		}
	}

	t.Run("empty", func(t *testing.T) {
		assertErr(t, plan.BindBatch(), "empty batch")
	})
	t.Run("instance-index", func(t *testing.T) {
		good := instanceTensors(plan, c.req, 7)
		bad := instanceTensors(plan, c.req, 7)[:2] // missing C
		assertErr(t, plan.BindBatch(good, bad), "instance 1")
	})
	t.Run("stacked-shape", func(t *testing.T) {
		mk := func(name string, shape ...int) *distal.Tensor {
			return &distal.Tensor{Name: name, Data: tensor.New(name, shape...)}
		}
		assertErr(t, plan.BindStacked(2, mk("A", 2, 64, 64), mk("B", 64, 64), mk("C", 2, 64, 64)), "stacked tensor B")
	})
	t.Run("shared-output", func(t *testing.T) {
		a := instanceTensors(plan, c.req, 7)
		b := instanceTensors(plan, c.req, 13)
		b[0] = a[0] // both instances write the same A
		assertErr(t, plan.BindBatch(a, b), "outputs must be private")
	})
}

// TestBatchSharedPlanConcurrent runs 8 goroutines, each executing a batched
// run of one shared cached plan on its own data: the serving scenario.
// Exactly one compile must happen, every instance must match its sequential
// reference, and under -race this proves the plan, its pooled kernel
// scratch, and the batched executor state are private per execution.
func TestBatchSharedPlanConcurrent(t *testing.T) {
	c := batchCases(t)[0]
	sess := distal.NewSession(c.machine)
	plan, err := sess.Compile(context.Background(), c.req)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, batch = 8, 3
	// Sequential references, one set per goroutine (seeds disjoint).
	refs := make([][]*tensor.Dense, goroutines)
	for g := 0; g < goroutines; g++ {
		refs[g] = make([]*tensor.Dense, batch)
		for i := 0; i < batch; i++ {
			ts := instanceTensors(plan, c.req, int64(10000*g+1000*i+7))
			if _, err := plan.Bind(ts...).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			refs[g][i] = outputOf(ts, plan)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	outs := make([][]*tensor.Dense, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := sess.Compile(context.Background(), c.req)
			if err != nil {
				errs[g] = err
				return
			}
			instances := make([][]*distal.Tensor, batch)
			for i := range instances {
				instances[i] = instanceTensors(p, c.req, int64(10000*g+1000*i+7))
			}
			bb := p.BindBatch(instances...)
			if _, err := bb.Run(context.Background()); err != nil {
				errs[g] = err
				return
			}
			outs[g] = make([]*tensor.Dense, batch)
			for i := range instances {
				outs[g][i] = outputOf(instances[i], p)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := 0; i < batch; i++ {
			got, want := outs[g][i].Data(), refs[g][i].Data()
			for v := range got {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("goroutine %d instance %d value %d: %v != %v", g, i, v, got[v], want[v])
				}
			}
		}
	}
	if st := sess.CacheStats(); st.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 compile across all batched executions", st.Misses)
	}
}

// pollCanceledCtx is a context that reports cancellation starting at its
// n-th Err() poll: a deterministic way to land a cancellation between the
// entry check and completion, exercising the periodic checkpoints without
// racing a timer against the work.
type pollCanceledCtx struct {
	context.Context
	polls     atomic.Int64
	threshold int64
	once      sync.Once
	done      chan struct{}
}

func cancelAfterPolls(n int64) *pollCanceledCtx {
	return &pollCanceledCtx{Context: context.Background(), threshold: n, done: make(chan struct{})}
}

func (c *pollCanceledCtx) Err() error {
	if c.polls.Add(1) > c.threshold {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *pollCanceledCtx) Done() <-chan struct{} { return c.done }

// TestBatchRunCancellation cancels a batched execution mid-run: the error
// must classify KindCanceled (so services map it to a timeout status, not a
// 500), and the worker pool must wind down without leaking goroutines.
func TestBatchRunCancellation(t *testing.T) {
	// 8 instances of a 4-launch SUMMA: 512 tasks, each polling the context.
	req := distal.Request{
		Stmt:   "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{"A": {64, 64}, "B": {64, 64}, "C": {64, 64}},
		Schedule: "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) " +
			"split(k,ko,ki,16) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)",
	}
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 4, 4))
	plan, err := sess.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	instances := make([][]*distal.Tensor, 8)
	for i := range instances {
		instances[i] = instanceTensors(plan, req, int64(1000*i+7))
	}
	// A first run builds the plan's tape, so the canceled run below goes
	// straight to Execute: past the entry check, its polls are the
	// per-launch and per-task checkpoints.
	if _, err := plan.BindBatch(instances[0]).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const threshold = 12
	ctx := cancelAfterPolls(threshold)
	_, err = plan.BindBatch(instances...).Run(ctx)
	if err == nil {
		t.Fatal("Run succeeded despite cancellation")
	}
	if kind := distal.KindOf(err); kind != distal.KindCanceled {
		t.Fatalf("error kind %v, want KindCanceled (%v)", kind, err)
	}
	// Every worker stops at its next checkpoint: far fewer polls than the
	// 512 tasks a finished run would make.
	if polls := ctx.polls.Load(); polls <= threshold || polls > threshold+16 {
		t.Fatalf("%d context polls, want a few past the threshold of %d", polls, threshold)
	}
	// The worker pool joins before Run returns; give the runtime a moment to
	// retire exiting goroutines, then require the count back at baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, want <= %d (baseline+1): worker pool leaked", runtime.NumGoroutine(), before+1)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
