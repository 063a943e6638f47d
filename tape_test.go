package distal_test

// Tests for the analysis a plan caches and replays on every Real run: a warm
// run executes the tape without walking the accounting again, so it
// allocates a small, bounded number of objects; its metrics are the
// simulation's; concurrent first runs share one build; a canceled build is
// not kept; and options that change the accounting analyse afresh.

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"distal"
	"distal/internal/ir"
	"distal/internal/obs"
	"distal/internal/tensor"
)

// serveSmall is the request of the benchmark's serve-small workload: SUMMA
// at n = 64 on a 4×4 grid in eight k steps.
func serveSmall() distal.Request {
	return distal.Request{
		Stmt:   "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{"A": {64, 64}, "B": {64, 64}, "C": {64, 64}},
		Schedule: "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) " +
			"split(k,ko,ki,8) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)",
	}
}

// freshServeSmall compiles serveSmall on a new session: a plan no run has
// analysed yet.
func freshServeSmall(t *testing.T) *distal.Plan {
	t.Helper()
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 4, 4))
	plan, err := sess.Compile(context.Background(), serveSmall())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// checkOracle fails the test unless the instance's output is within 1e-9 of
// ir.Evaluate on its inputs.
func checkOracle(t *testing.T, plan *distal.Plan, inst []*distal.Tensor) {
	t.Helper()
	stmt, err := ir.Parse(serveSmall().Stmt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.Dense{}
	for _, ts := range inst {
		inputs[ts.Name] = ts.Data
	}
	want, err := ir.Evaluate(stmt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputOf(inst, plan); !got.EqualWithin(want, 1e-9) {
		t.Fatalf("output differs from ir.Evaluate by %g", got.MaxAbsDiff(want))
	}
}

// attr returns the value of the span's attribute key, or "".
func attr(sp *obs.Span, key string) string {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// warmRunAllocBudget caps the allocations of a warm single-instance
// BindBatch run of serve-small's plan (one worker: AllocsPerRun runs at
// GOMAXPROCS 1). Binding, execution and the result take 13 objects;
// a run that walked the accounting again took 249. The budget is about 1.5×
// an earlier count of 15, and counts repeat exactly.
const warmRunAllocBudget = 23

func TestWarmRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race: sync.Pool drops kernel scratch at random")
	}
	plan := freshServeSmall(t)
	inst := instanceTensors(plan, serveSmall(), 1)
	ctx := context.Background()
	if _, err := plan.BindBatch(inst).Run(ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := plan.BindBatch(inst).Run(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per warm run", allocs)
	if allocs > warmRunAllocBudget {
		t.Fatalf("a warm run allocates %v objects, budget %d", allocs, warmRunAllocBudget)
	}
}

// chainBatch is the benchmark's chain-batch program at n = 64: a low-rank
// chain E = (A·B)·C whose 64×64 intermediate D (32 KiB) dwarfs its 64×8
// output.
func chainBatch() distal.Request {
	const n, k = 64, 8
	return distal.Request{
		Shapes: map[string][]int{"A": {n, k}, "B": {k, n}, "C": {n, k}},
		Stmts: []distal.Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)", Schedule: "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) " +
				"split(k,ko,ki,8) reorder(io,jo,ko,ii,ji,ki) communicate(jo,D) communicate(ko,A,B)"},
			{Stmt: "E(i,l) = D(i,j) * C(j,l)", Schedule: "divide(i,io,ii,4) divide(l,lo,li,4) reorder(io,lo,ii,li) distribute(io,lo) " +
				"split(j,jo,ji,16) reorder(io,lo,jo,ii,li,ji) communicate(lo,E) communicate(jo,D,C)"},
		},
	}
}

// TestWarmProgramBatchAllocBytes: a warm batched run of a program borrows
// its intermediates from the compiled program instead of allocating them,
// and replays the program's one analysis, so its bytes per run stay below
// the size of one intermediate.
func TestWarmProgramBatchAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race: sync.Pool drops intermediates at random")
	}
	ctx := context.Background()
	req := chainBatch()
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 4, 4))
	pp, err := sess.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	insts := make([][]*distal.Tensor, 2)
	for i := range insts {
		for k, name := range pp.Inputs() {
			d := tensor.New(name, req.Shapes[name]...)
			d.FillRandom(int64(10*i + k))
			insts[i] = append(insts[i], &distal.Tensor{Name: name, Shape: req.Shapes[name], Data: d})
		}
	}
	run := func() {
		if _, err := pp.BindBatch(insts...).Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run() // analyse once and fill the pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	d := pp.Shape("D")
	intermediate := uint64(8 * d[0] * d[1])
	t.Logf("%d bytes per warm run of a batch of %d; one intermediate is %d bytes", perRun, len(insts), intermediate)
	if perRun >= intermediate {
		t.Fatalf("a warm batched program run allocates %d bytes, want below one intermediate's %d", perRun, intermediate)
	}
}

// TestWarmRunMatchesSimulate: the first Real run (which builds the tape) and
// a warm one return the simulation's Result, field for field.
func TestWarmRunMatchesSimulate(t *testing.T) {
	plan := freshServeSmall(t)
	ctx := context.Background()
	want, err := plan.Simulate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		inst := instanceTensors(plan, serveSmall(), int64(run))
		got, err := plan.Bind(inst...).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Result %+v, Simulate %+v", run, got, want)
		}
		checkOracle(t, plan, inst)
	}
}

// TestConcurrentFirstRunsAnalyseOnce: eight runs released at once on a plan
// no run has analysed share one build — exactly one of their traces holds an
// "analyse" span — and each computes its own instance correctly. A later
// run's trace shows the replay: no analysis, and the drain's groups.
func TestConcurrentFirstRunsAnalyseOnce(t *testing.T) {
	plan := freshServeSmall(t)
	const runs = 8
	var (
		gate   = make(chan struct{})
		wg     sync.WaitGroup
		traces = make([]*obs.Trace, runs)
		insts  = make([][]*distal.Tensor, runs)
		errs   = make([]error, runs)
	)
	for g := 0; g < runs; g++ {
		insts[g] = instanceTensors(plan, serveSmall(), int64(100*g+1))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, ctx := obs.NewTrace(context.Background(), obs.NewRequestID(), "run")
			<-gate
			_, errs[g] = plan.Bind(insts[g]...).Run(ctx)
			tr.Finish()
			traces[g] = tr
		}(g)
	}
	close(gate)
	wg.Wait()
	analysed := 0
	for g := 0; g < runs; g++ {
		if errs[g] != nil {
			t.Fatalf("run %d: %v", g, errs[g])
		}
		checkOracle(t, plan, insts[g])
		if sp := traces[g].Find("analyse"); sp != nil {
			analysed++
			if c := attr(sp, "cached"); c != "false" {
				t.Fatalf("analyse span cached=%q, want false", c)
			}
		}
	}
	if analysed != 1 {
		t.Fatalf("%d of %d concurrent first runs analysed, want exactly 1", analysed, runs)
	}

	for _, c := range []struct {
		workers int
		pooled  string
	}{{1, "false"}, {2, "true"}} {
		tr, ctx := obs.NewTrace(context.Background(), obs.NewRequestID(), "run")
		if _, err := plan.Bind(instanceTensors(plan, serveSmall(), 9)...).Run(ctx, distal.WithRealWorkers(c.workers)); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		if tr.Find("analyse") != nil {
			t.Fatal("a warm run analysed again")
		}
		drain := tr.Find("real-drain")
		if drain == nil {
			t.Fatal("a warm run's trace has no real-drain span")
		}
		// Every task writes its own output tile in place: 16 tasks, 16 groups.
		if attr(drain, "tasks") != "16" || attr(drain, "groups") != "16" || attr(drain, "pooled") != c.pooled {
			t.Fatalf("workers=%d: real-drain attrs %v, want tasks=16 groups=16 pooled=%s", c.workers, drain.Attrs(), c.pooled)
		}
	}
}

// TestCanceledTapeBuildNotCached: a first run canceled inside the analysis
// keeps no tape, so the next run analyses again and computes correctly.
func TestCanceledTapeBuildNotCached(t *testing.T) {
	plan := freshServeSmall(t)
	// The first poll is Run's entry check; the second, the analysis' first
	// launch, reports cancellation.
	_, err := plan.Bind(instanceTensors(plan, serveSmall(), 1)...).Run(cancelAfterPolls(1))
	if distal.KindOf(err) != distal.KindCanceled {
		t.Fatalf("canceled first run: kind %v (err %v), want KindCanceled", distal.KindOf(err), err)
	}
	tr, ctx := obs.NewTrace(context.Background(), obs.NewRequestID(), "run")
	inst := instanceTensors(plan, serveSmall(), 2)
	if _, err := plan.Bind(inst...).Run(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if tr.Find("analyse") == nil {
		t.Fatal("the run after a canceled build did not analyse: the canceled tape was kept")
	}
	checkOracle(t, plan, inst)
}

// TestCostModelRunAnalysesAfresh: a run under WithCostModel returns that
// model's metrics, not the cached tape's, and leaves the cached tape as it
// was.
func TestCostModelRunAnalysesAfresh(t *testing.T) {
	plan := freshServeSmall(t)
	ctx := context.Background()
	def, err := plan.Bind(instanceTensors(plan, serveSmall(), 1)...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gpu := distal.WithCostModel(distal.LassenGPU())
	want, err := plan.Simulate(ctx, gpu)
	if err != nil {
		t.Fatal(err)
	}
	if want.Time == def.Time {
		t.Fatal("the two cost models agree; the test cannot tell them apart")
	}
	inst := instanceTensors(plan, serveSmall(), 2)
	got, err := plan.Bind(inst...).Run(ctx, gpu)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run under the GPU model: Result %+v, want its simulation %+v", got, want)
	}
	checkOracle(t, plan, inst)
	again, err := plan.Bind(instanceTensors(plan, serveSmall(), 3)...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, def) {
		t.Fatalf("default run after the GPU run: Result %+v, want %+v", again, def)
	}
}
