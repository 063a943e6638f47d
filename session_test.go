package distal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/tensor"
)

const gemmStmt = "A(i,j) = B(i,k) * C(k,j)"

func gemmRequest(n int) Request {
	return Request{
		Stmt: gemmStmt,
		Shapes: map[string][]int{
			"A": {n, n}, "B": {n, n}, "C": {n, n},
		},
		Formats: map[string]string{
			"A": "xy->xy", "B": "xy->xy", "C": "xy->xy",
		},
		Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) " +
			"distribute(io,jo) split(k,ko,ki,16) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(jo,A) communicate(ko,B,C)",
	}
}

// execute compiles req through sess and simulates the plan under the
// session's cost model: the round trip most session tests assert on.
func execute(sess *Session, req Request) (*Result, error) {
	ctx := context.Background()
	plan, err := sess.Compile(ctx, req)
	if err != nil {
		return nil, err
	}
	return plan.Simulate(ctx)
}

func TestSessionExecute(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	res, err := execute(sess, gemmRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Flops <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	// Same request again: the plan must come from the cache.
	if _, err := execute(sess, gemmRequest(64)); err != nil {
		t.Fatal(err)
	}
	st := sess.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestSessionExecuteAutoSchedule(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	req := gemmRequest(64)
	req.Schedule = "" // AutoSchedule
	res, err := execute(sess, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flops <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestSessionExecuteDefaultFormats(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	req := gemmRequest(64)
	req.Formats = nil // every tensor defaults to its rank's canonical tiling
	if _, err := execute(sess, req); err != nil {
		t.Fatal(err)
	}
}

func TestSessionExecuteErrors(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	for name, req := range map[string]Request{
		"bad statement":    {Stmt: "A(i,j) ="},
		"missing shape":    {Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 8}}},
		"bad format":       {Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}}, Formats: map[string]string{"A": "xy->>xy"}},
		"bad schedule":     {Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}}, Schedule: "divide(i,io,ii)"},
		"unknown variable": {Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}}, Schedule: "divide(zz,io,ii,2)"},
		"typo'd format key": {Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}},
			Formats: map[string]string{"b": "xy->x"}},
		"extra shape key": {Stmt: gemmStmt,
			Shapes: map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}, "D": {8, 8}}},
		"rank 7 without format": {Stmt: "A(a,b,c,d,e,f,g) = B(a,b,c,d,e,f,g)",
			Shapes: map[string][]int{
				"A": {2, 2, 2, 2, 2, 2, 2},
				"B": {2, 2, 2, 2, 2, 2, 2},
			}},
	} {
		if _, err := execute(sess, req); err == nil {
			t.Errorf("%s: execute succeeded, want error", name)
		}
	}
}

// TestMultiLevelFormatOnOneLevelMachine pins what ";" in a format means to
// every machine the public API builds: NewMachine, with or without
// WithProcsPerNode, is one level deep, so a format with a second level
// (";") is a compile error naming both depths. ProcsPerNode groups the
// leaves into nodes for the cost model; it adds no machine level.
func TestMultiLevelFormatOnOneLevelMachine(t *testing.T) {
	for name, m := range map[string]*Machine{
		"cpu 2x2":             NewMachine(CPU, 2, 2),
		"gpu 2x8, 4 per node": NewMachine(GPU, 2, 8).WithProcsPerNode(4),
	} {
		_, err := NewSession(m).Compile(context.Background(), Request{
			Stmt:    gemmStmt,
			Shapes:  map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}},
			Formats: map[string]string{"A": "xy->xy; xy->x"},
		})
		const want = "distal: compile: core: tensor A: distnot: placement has 2 levels but machine has 1"
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
		if KindOf(err) != KindCompile {
			t.Errorf("%s: kind = %v, want %v", name, KindOf(err), KindCompile)
		}
	}
}

// TestSessionRequestMemo: a repeated request resolves through the request
// memo — no statement re-parse — and still reports plan-cache hits; results
// stay identical, and the memo-resolved plan reports itself as cached.
func TestSessionRequestMemo(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	req := gemmRequest(64)
	first, err := execute(sess, req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sess.Compile(context.Background(), req) // memo path
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Stats().Cached {
		t.Fatal("second compile of an identical request should resolve from the cache")
	}
	if plan.Key() == "" || plan.ScheduleText() == "" || plan.Notation() == "" {
		t.Fatalf("memo-resolved plan lost metadata: key=%q sched=%q notation=%q", plan.Key(), plan.ScheduleText(), plan.Notation())
	}
	again, err := plan.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Time != first.Time || again.Copies != first.Copies {
		t.Fatalf("memoized plan diverged: %+v vs %+v", again, first)
	}
	if st := sess.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// A request differing only in schedule text must not alias the memo.
	other := gemmRequest(64)
	other.Schedule = "divide(i,io,ii,4) reorder(io,ii,j,k) distribute(io) communicate(io,A,B,C)"
	if _, err := execute(sess, other); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want a second compile for the new schedule", st)
	}
}

// TestSessionMemoDoesNotBypassValidation: a request whose only difference
// from a previously memoized one is an invalid map entry must still be
// rejected, not silently served the memoized plan.
func TestSessionMemoDoesNotBypassValidation(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	good := Request{
		Stmt:   gemmStmt,
		Shapes: map[string][]int{"A": {64, 64}, "B": {64, 64}, "C": {64, 64}},
	}
	if _, err := execute(sess, good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Formats = map[string]string{"b": "xy->x"} // typo'd key, otherwise identical
	if _, err := execute(sess, bad); err == nil {
		t.Fatal("typo'd Formats key served from the request memo instead of failing validation")
	}
}

// TestSessionMemoCanonicalInjective: a request must not be able to collide
// with a memoized one by embedding another field's rendering inside its own
// (the canonical form is length-framed precisely to prevent this).
func TestSessionMemoCanonicalInjective(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	valid := Request{
		Stmt:     gemmStmt,
		Shapes:   map[string][]int{"A": {64, 64}, "B": {64, 64}, "C": {64, 64}},
		Formats:  map[string]string{"B": "xy->xy"},
		Schedule: gemmRequest(64).Schedule,
	}
	if _, err := execute(sess, valid); err != nil {
		t.Fatal(err)
	}
	// Fold the format entry's old textual rendering into the schedule of a
	// request without that entry: it must fail schedule parsing, not be
	// served the memoized plan.
	forged := Request{
		Stmt:     valid.Stmt,
		Shapes:   valid.Shapes,
		Schedule: "format B=xy->xy\n" + valid.Schedule,
	}
	if canonicalRequest(forged) == canonicalRequest(valid) {
		t.Fatal("distinct requests canonicalize identically")
	}
	if _, err := execute(sess, forged); err == nil {
		t.Fatal("forged request executed instead of failing schedule parse")
	}

	// Programs: statements merged or split, formats moved between
	// statements, and a one-statement program against its statement alone
	// must all render apart — and no variant may be served the chain's DAG.
	ctx := context.Background()
	chain := chainRequest(16)
	s0, s1 := chain.Stmts[0], chain.Stmts[1]
	union := map[string]string{}
	for _, st := range chain.Stmts {
		for k, v := range st.Formats {
			union[k] = v
		}
	}
	without := func(m map[string]string, drop string) map[string]string {
		out := map[string]string{}
		for k, v := range m {
			if k != drop {
				out[k] = v
			}
		}
		return out
	}
	programs := map[string]Request{
		"merged": {Shapes: chain.Shapes, Stmts: []Statement{
			{Stmt: s0.Stmt + "\n" + s1.Stmt, Formats: union, Schedule: s0.Schedule + " " + s1.Schedule}}},
		"split": {Shapes: chain.Shapes, Stmts: []Statement{
			{Stmt: s0.Stmt, Formats: s0.Formats}, {Schedule: s0.Schedule}, s1}},
		"format moved to the producer": {Shapes: chain.Shapes, Stmts: []Statement{
			s0, {Stmt: s1.Stmt, Formats: without(s1.Formats, "D"), Schedule: s1.Schedule}}},
		"format moved to the consumer": {Shapes: chain.Shapes, Stmts: []Statement{
			{Stmt: s0.Stmt, Formats: without(s0.Formats, "D"), Schedule: s0.Schedule}, s1}},
		"schedules swapped": {Shapes: chain.Shapes, Stmts: []Statement{
			{Stmt: s0.Stmt, Formats: s0.Formats, Schedule: s1.Schedule},
			{Stmt: s1.Stmt, Formats: s1.Formats, Schedule: s0.Schedule}}},
		"first statement only": {Shapes: map[string][]int{"A": {16, 16}, "B": {16, 16}}, Stmts: []Statement{s0}},
	}
	single := Request{Stmt: s0.Stmt, Shapes: map[string][]int{"A": {16, 16}, "B": {16, 16}, "D": {16, 16}},
		Formats: s0.Formats, Schedule: s0.Schedule}
	seen := map[string]string{canonicalRequest(chain): "chain", canonicalRequest(single): "single statement"}
	for name, req := range programs {
		ck := canonicalRequest(req)
		if other, dup := seen[ck]; dup {
			t.Fatalf("programs %q and %q canonicalize identically", name, other)
		}
		seen[ck] = name
	}
	pp, err := sess.Compile(ctx, chain)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range programs {
		if got, err := sess.Compile(ctx, req); err == nil && got.planData == pp.planData {
			t.Fatalf("program %q was served the chain's memoized DAG", name)
		}
	}
}

func TestSessionCacheDiscriminates(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	if _, err := execute(sess, gemmRequest(64)); err != nil {
		t.Fatal(err)
	}
	other := gemmRequest(64)
	other.Shapes["B"] = []int{64, 128}
	other.Shapes["C"] = []int{128, 64}
	if _, err := execute(sess, other); err != nil {
		t.Fatal(err)
	}
	st := sess.CacheStats()
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses / 2 entries", st)
	}
}

func TestSessionCacheEviction(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2), WithPlanCacheSize(2))
	for _, n := range []int{16, 32, 48} {
		if _, err := execute(sess, gemmRequest(n)); err != nil {
			t.Fatal(err)
		}
	}
	if st := sess.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 after eviction", st.Entries)
	}
	// n=16 was evicted (least recent): recompiling misses.
	if _, err := execute(sess, gemmRequest(16)); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 0 hits / 4 misses", st)
	}
	// n=48 is still resident.
	if _, err := execute(sess, gemmRequest(48)); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want a hit for the resident plan", st)
	}
}

func TestSessionCacheDisabled(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2), WithPlanCacheSize(0))
	for i := 0; i < 2; i++ {
		if _, err := execute(sess, gemmRequest(64)); err != nil {
			t.Fatal(err)
		}
	}
	if st := sess.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want no hits and no entries with caching off", st)
	}
}

// TestSessionBoundDataCached: data bound to a computation's tensors does
// not enter compilation, so two data-bound computations of one workload
// share one cached plan — and concurrent real runs of it on different data
// each compute their own result (run with -race).
func TestSessionBoundDataCached(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	f := MustFormat("xy->xy")
	type run struct {
		comp    *Computation
		tensors []*Tensor
		plan    *Plan
	}
	runs := make([]run, 2)
	for i := range runs {
		A := NewTensor("A", f, 16, 16).Zero()
		B := NewTensor("B", f, 16, 16).FillRandom(int64(2*i + 1))
		C := NewTensor("C", f, 16, 16).FillRandom(int64(2*i + 2))
		c := sess.MustDefine(gemmStmt, A, B, C)
		if err := c.AutoSchedule(); err != nil {
			t.Fatal(err)
		}
		plan, err := c.Compile(ctx)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run{comp: c, tensors: []*Tensor{A, B, C}, plan: plan}
	}
	if st := sess.CacheStats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs))
	for _, r := range runs {
		wg.Add(1)
		go func(r run) {
			defer wg.Done()
			if _, err := r.plan.Bind(r.tensors...).Run(ctx); err != nil {
				errs <- err
				return
			}
			want, err := ir.Evaluate(r.comp.Stmt, map[string]*tensor.Dense{"B": r.tensors[1].Data, "C": r.tensors[2].Data})
			if err != nil {
				errs <- err
				return
			}
			if !r.tensors[0].Data.EqualWithin(want, 1e-9) {
				errs <- fmt.Errorf("a run on the shared plan produced a wrong product")
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionConcurrentSimulate: one cached plan simulated from many
// goroutines must produce identical deterministic results (run with -race).
func TestSessionConcurrentSimulate(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	want, err := execute(sess, gemmRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := execute(sess, gemmRequest(64))
			if err != nil {
				errs <- err
				return
			}
			if res.Time != want.Time || res.Flops != want.Flops || res.Copies != want.Copies {
				errs <- fmt.Errorf("concurrent result diverged: %+v vs %+v", res, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sess.CacheStats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one compile", st)
	}
}

func TestSessionRedistribute(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	tsr := NewTensor("T", MustFormat("xy->xy"), 32, 32)
	bytes, secs, err := sess.RedistributeCost(tsr, MustFormat("xy->x*"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 || secs <= 0 {
		t.Fatalf("implausible cost: %d bytes, %f s", bytes, secs)
	}
	// The layout-change plan is cached: repeating it hits.
	if _, _, err := sess.RedistributeCost(tsr, MustFormat("xy->x*")); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Hits < 1 {
		t.Fatalf("stats = %+v, want a cache hit for the repeated layout change", st)
	}
}

func TestPlanExecuteOptions(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(); st.Cached || st.Launches == 0 || st.Points == 0 {
		t.Fatalf("implausible compile stats: %+v", st)
	}
	traced, err := plan.Simulate(ctx, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("WithTrace produced no trace records")
	}
	sync1, err := plan.Simulate(ctx, WithSynchronous())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plan.Simulate(ctx, WithCostModel(LassenCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if sync1.Time < plain.Time {
		t.Fatalf("synchronous run (%f s) faster than overlapped (%f s)", sync1.Time, plain.Time)
	}
}

func TestScheduleTextRoundTripThroughComputation(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	f := MustFormat("xy->xy")
	mk := func() []*Tensor {
		return []*Tensor{
			NewTensor("A", f, 64, 64),
			NewTensor("B", f, 64, 64),
			NewTensor("C", f, 64, 64),
		}
	}
	c1 := sess.MustDefine(gemmStmt, mk()...)
	c1.Schedule().
		Divide("i", "io", "ii", 2).Divide("j", "jo", "ji", 2).
		Reorder("io", "jo", "ii", "ji").
		Distribute("io", "jo").
		Communicate("jo", "A", "B", "C")
	text := c1.ScheduleText()

	c2 := sess.MustDefine(gemmStmt, mk()...)
	if err := c2.ApplySchedule(text); err != nil {
		t.Fatal(err)
	}
	if c2.ScheduleText() != text {
		t.Fatalf("round trip changed schedule:\n  %q\n  %q", text, c2.ScheduleText())
	}
	// Both compile to the same cached plan.
	if _, err := c1.Compile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Compile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the parsed schedule to hit the fluent plan", st)
	}
}

// TestFluentCompileSingleflight: concurrent identical fluent compiles
// (Computation.Compile, not the Request path) collapse through the same
// flight table as Session.Compile — exactly one compiler run, everyone else
// waits and shares; a waiter outlives its leader's cancellation, and a
// sticky schedule error is classified like the Request path's.
func TestFluentCompileSingleflight(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	build := func() *Computation {
		f := Tiled(2)
		A := NewTensor("A", f, 64, 64)
		B := NewTensor("B", f, 64, 64)
		C := NewTensor("C", f, 64, 64)
		comp, err := sess.Define(gemmStmt, A, B, C)
		if err != nil {
			t.Fatal(err)
		}
		comp.Schedule().
			Divide("i", "io", "ii", 2).Divide("j", "jo", "ji", 2).
			Reorder("io", "jo", "ii", "ji").Distribute("io", "jo").
			Communicate("jo", "A", "B", "C")
		return comp
	}
	const n = 8
	comps := make([]*Computation, n)
	for i := range comps {
		comps[i] = build()
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	plans := make([]*Plan, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i], errs[i] = comps[i].Compile(context.Background())
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	st := sess.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (one shared compile)", st.Misses)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits = %d, want %d (everyone else shares)", st.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if plans[i].planData != plans[0].planData {
			t.Fatalf("compile %d returned a different program object", i)
		}
	}
	// A fluent compile and a Request compile of the same program share one
	// cache entry: the Request path is a hit now.
	plan, err := sess.Compile(context.Background(), Request{
		Stmt: gemmStmt,
		Shapes: map[string][]int{
			"A": {64, 64}, "B": {64, 64}, "C": {64, 64},
		},
		Schedule: comps[0].ScheduleText(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Stats().Cached {
		t.Fatal("request compile of the fluently compiled program missed the cache")
	}

	t.Run("canceled leader", func(t *testing.T) {
		sess := NewSession(NewMachine(CPU, 4, 4))
		big := func() *Computation {
			f := Tiled(2)
			c := sess.MustDefine(gemmStmt,
				NewTensor("A", f, 2048, 2048), NewTensor("B", f, 2048, 2048), NewTensor("C", f, 2048, 2048))
			if err := c.ApplySchedule(bigRequest().Schedule); err != nil {
				t.Fatal(err)
			}
			return c
		}
		// The leader is held inside its flight (at the compiler's entry
		// check) until the waiter is parked on that flight; then the
		// leader's context reports cancellation.
		leader, waiter := big(), big()
		leaderCtx := newGateCtx()
		waiterCtx := &doneSignalCtx{Context: context.Background(), waiting: make(chan struct{})}
		leaderOut := make(chan error, 1)
		go func() {
			_, err := leader.Compile(leaderCtx)
			leaderOut <- err
		}()
		<-leaderCtx.entered
		waiterOut := make(chan *Plan, 1)
		go func() {
			plan, err := waiter.Compile(waiterCtx)
			if err != nil {
				t.Errorf("waiter inherited the leader's cancellation: %v", err)
			}
			waiterOut <- plan
		}()
		<-waiterCtx.waiting
		close(leaderCtx.release)
		if err := <-leaderOut; KindOf(err) != KindCanceled {
			t.Fatalf("leader: kind = %v (err %v), want KindCanceled", KindOf(err), err)
		}
		plan := <-waiterOut
		if plan == nil {
			t.FailNow()
		}
		if plan.Stats().Shared || plan.Stats().Cached {
			t.Fatalf("waiter stats = %+v, want a compile of its own after the retry", plan.Stats())
		}
		if st := sess.CacheStats(); st.Misses != 2 || st.Entries != 1 {
			t.Fatalf("stats = %+v, want 2 misses (canceled leader, retrying waiter) and 1 entry", st)
		}
	})

	t.Run("schedule error kind", func(t *testing.T) {
		comp := build()
		comp.Schedule().Divide("nope", "a", "b", 2)
		_, err := comp.Compile(context.Background())
		if KindOf(err) != KindSchedule {
			t.Fatalf("kind = %v (err %v), want KindSchedule", KindOf(err), err)
		}
		var de *Error
		if !errors.As(err, &de) {
			t.Fatalf("error %v is not a *distal.Error", err)
		}
	})
}

// gateCtx holds a compile inside its flight: its first Err poll (the entry
// check) passes, the next signals entered and blocks until release is
// closed, and from then on every poll reports cancellation.
type gateCtx struct {
	context.Context
	polls   atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func newGateCtx() *gateCtx {
	return &gateCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (c *gateCtx) Err() error {
	switch c.polls.Add(1) {
	case 1:
		return nil
	case 2:
		close(c.entered)
	}
	<-c.release
	return context.Canceled
}

func (c *gateCtx) Done() <-chan struct{} { return c.release }

// doneSignalCtx closes waiting on its first Done call: a compile calls Done
// first when it parks on another caller's flight.
type doneSignalCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *doneSignalCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return nil
}

// TestFluentCompileErrorPropagates: a failing fluent compile surfaces its
// error to every concurrent caller and leaves no stuck flight behind.
func TestFluentCompileErrorPropagates(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	f := Tiled(2)
	comp, err := sess.Define(gemmStmt,
		NewTensor("A", f, 64, 64), NewTensor("B", f, 64, 64), NewTensor("C", f, 64, 64))
	if err != nil {
		t.Fatal(err)
	}
	// A sticky schedule error (divide by zero pieces) surfaces at Compile.
	comp.Schedule().Divide("i", "io", "ii", 0)
	if _, err := comp.Compile(context.Background()); err == nil {
		t.Fatal("expected a compile error")
	}
	// The session must remain usable afterwards.
	if _, err := execute(sess, gemmRequest(64)); err != nil {
		t.Fatalf("session unusable after failed fluent compile: %v", err)
	}
}

// TestFluentMatchesRequest: a fluent computation names the same program as
// the Request that spells it out by hand, so the two share one plan. Each
// case compiles the fluent computation first and the hand-written request
// second on one session; the keys must be equal and the second compile
// must be a cache hit, not a compiler run.
func TestFluentMatchesRequest(t *testing.T) {
	square := func(n int, names ...string) map[string][]int {
		shapes := map[string][]int{}
		for _, name := range names {
			shapes[name] = []int{n, n}
		}
		return shapes
	}
	gpuNodes := &Machine{M: machine.New(machine.NewGrid(2, 2), machine.SysMem, machine.CPU).
		WithChild(machine.New(machine.NewGrid(2), machine.GPUFBMem, machine.GPU))}
	for _, tc := range []struct {
		name    string
		machine *Machine
		expr    string
		tensors []*Tensor
		sched   func(*Sched)
		req     Request
	}{
		{
			name:    "quickstart substitute",
			machine: NewMachine(CPU, 2, 2),
			expr:    gemmStmt,
			tensors: []*Tensor{NewTensor("A", Tiled(2), 64, 64), NewTensor("B", Tiled(2), 64, 64), NewTensor("C", Tiled(2), 64, 64)},
			sched: func(s *Sched) {
				s.Divide("i", "io", "ii", 2).Divide("j", "jo", "ji", 2).
					Reorder("io", "jo", "ii", "ji").Distribute("io", "jo").
					Split("k", "ko", "ki", 16).Reorder("io", "jo", "ko", "ii", "ji", "ki").
					Communicate("jo", "A").Communicate("ko", "B", "C").
					Substitute([]string{"ii", "ji", "ki"}, "BLAS.GEMM")
			},
			req: Request{Stmt: gemmStmt, Shapes: square(64, "A", "B", "C"),
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) distribute(io,jo) " +
					"split(k,ko,ki,16) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C) " +
					"substitute(ii,ji,ki,BLAS.GEMM)"},
		},
		{
			name:    "cannon rotate",
			machine: NewMachine(CPU, 3, 3),
			expr:    gemmStmt,
			tensors: []*Tensor{NewTensor("A", Tiled(2), 48, 48), NewTensor("B", Tiled(2), 48, 48), NewTensor("C", Tiled(2), 48, 48)},
			sched: func(s *Sched) {
				s.Divide("i", "io", "ii", 3).Divide("j", "jo", "ji", 3).
					Reorder("io", "jo", "ii", "ji").Distribute("io", "jo").
					Divide("k", "ko", "ki", 3).Reorder("ko", "ii", "ji", "ki").
					Rotate("ko", []string{"io", "jo"}, "kos").
					Communicate("jo", "A").Communicate("kos", "B", "C")
			},
			req: Request{Stmt: gemmStmt, Shapes: square(48, "A", "B", "C"),
				Formats: map[string]string{"A": "xy->xy", "B": "xy->xy", "C": "xy->xy"},
				Schedule: "divide(i,io,ii,3) divide(j,jo,ji,3) reorder(io,jo,ii,ji) distribute(io,jo) " +
					"divide(k,ko,ki,3) reorder(ko,ii,ji,ki) rotate(ko,io,jo,kos) communicate(jo,A) communicate(kos,B,C)"},
		},
		{
			name:    "distribute onto",
			machine: NewMachine(CPU, 2, 2),
			expr:    gemmStmt,
			tensors: []*Tensor{NewTensor("A", Tiled(2), 32, 32), NewTensor("B", Tiled(2), 32, 32), NewTensor("C", Tiled(2), 32, 32)},
			sched: func(s *Sched) {
				s.DistributeOnto([]string{"i", "j"}, []string{"in", "jn"}, []string{"il", "jl"}).
					Communicate("jn", "A", "B", "C")
			},
			req: Request{Stmt: gemmStmt, Shapes: square(32, "A", "B", "C"),
				Schedule: "divide(i,in,il,2) divide(j,jn,jl,2) reorder(in,jn,il,jl) distribute(in,jn) communicate(jn,A,B,C)"},
		},
		{
			name:    "collapse",
			machine: NewMachine(CPU, 4),
			expr:    "A(i,j) = B(i,j)",
			tensors: []*Tensor{NewTensor("A", MustFormat("xy->x"), 16, 16), NewTensor("B", MustFormat("xy->x"), 16, 16)},
			sched: func(s *Sched) {
				s.Collapse("i", "j", "f").Divide("f", "fo", "fi", 4).Distribute("fo").Communicate("fo", "A", "B")
			},
			req: Request{Stmt: "A(i,j) = B(i,j)", Shapes: square(16, "A", "B"),
				Formats:  map[string]string{"A": "xy->x", "B": "xy->x"},
				Schedule: "collapse(i,j,f) divide(f,fo,fi,4) distribute(fo) communicate(fo,A,B)"},
		},
		{
			name:    "replicated",
			machine: NewMachine(CPU, 2, 2),
			expr:    gemmStmt,
			tensors: []*Tensor{NewTensor("A", Tiled(2), 32, 32), NewTensor("B", MustFormat("xy->x*"), 32, 32), NewTensor("C", MustFormat("xy->*y"), 32, 32)},
			sched: func(s *Sched) {
				s.DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}).
					Communicate("jo", "A", "B", "C")
			},
			req: Request{Stmt: gemmStmt, Shapes: square(32, "A", "B", "C"),
				Formats:  map[string]string{"B": "xy->x*", "C": "xy->*y"},
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) distribute(io,jo) communicate(jo,A,B,C)"},
		},
		{
			name:    "face fixed",
			machine: NewMachine(CPU, 2, 2, 2),
			expr:    gemmStmt,
			tensors: []*Tensor{NewTensor("A", MustFormat("xy->xy0"), 32, 32), NewTensor("B", MustFormat("xz->x0z"), 32, 32), NewTensor("C", MustFormat("zy->0yz"), 32, 32)},
			sched: func(s *Sched) {
				s.DistributeOnto([]string{"i", "j", "k"}, []string{"io", "jo", "ko"}, []string{"ii", "ji", "ki"}).
					Communicate("ko", "A", "B", "C")
			},
			req: Request{Stmt: gemmStmt, Shapes: square(32, "A", "B", "C"),
				Formats: map[string]string{"A": "xy->xy0", "B": "xz->x0z", "C": "zy->0yz"},
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) divide(k,ko,ki,2) reorder(io,jo,ko,ii,ji,ki) " +
					"distribute(io,jo,ko) communicate(ko,A,B,C)"},
		},
		{
			name:    "hierarchical",
			machine: gpuNodes,
			expr:    gemmStmt,
			tensors: []*Tensor{NewTensor("A", MustFormat("xy->xy; zw->z"), 16, 16), NewTensor("B", MustFormat("xy->xy; zw->z"), 16, 16), NewTensor("C", MustFormat("xy->xy; zw->z"), 16, 16)},
			sched: func(s *Sched) {
				s.Divide("i", "io", "ii", 2).Divide("j", "jo", "ji", 2).Divide("ii", "iio", "iii", 2).
					Reorder("io", "jo", "iio", "iii", "ji", "k").Distribute("io", "jo", "iio").
					Communicate("iio", "A", "B", "C")
			},
			req: Request{Stmt: gemmStmt, Shapes: square(16, "A", "B", "C"),
				Formats: map[string]string{"A": "xy->xy; zw->z", "B": "xy->xy; zw->z", "C": "xy->xy; zw->z"},
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) divide(ii,iio,iii,2) reorder(io,jo,iio,iii,ji,k) " +
					"distribute(io,jo,iio) communicate(iio,A,B,C)"},
		},
		{
			name:    "mttkrp",
			machine: NewMachine(CPU, 2, 2, 2),
			expr:    "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
			tensors: []*Tensor{NewTensor("A", MustFormat("ab->a00"), 8, 4), NewTensor("B", MustFormat("abc->abc"), 8, 8, 8),
				NewTensor("C", MustFormat("ab->*a*"), 8, 4), NewTensor("D", MustFormat("ab->**a"), 8, 4)},
			sched: func(s *Sched) {
				s.Divide("i", "io", "ii", 2).Divide("j", "jo", "ji", 2).Divide("k", "ko", "ki", 2).
					Reorder("io", "jo", "ko", "ii", "ji", "ki", "l").Distribute("io", "jo", "ko").
					Communicate("ko", "A", "B", "C", "D")
			},
			req: Request{Stmt: "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
				Shapes:  map[string][]int{"A": {8, 4}, "B": {8, 8, 8}, "C": {8, 4}, "D": {8, 4}},
				Formats: map[string]string{"A": "ab->a00", "B": "abc->abc", "C": "ab->*a*", "D": "ab->**a"},
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) divide(k,ko,ki,2) reorder(io,jo,ko,ii,ji,ki,l) " +
					"distribute(io,jo,ko) communicate(ko,A,B,C,D)"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			sess := NewSession(tc.machine)
			comp, err := sess.Define(tc.expr, tc.tensors...)
			if err != nil {
				t.Fatal(err)
			}
			tc.sched(comp.Schedule())
			fluent, err := comp.Compile(ctx)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := sess.Compile(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Key() != fluent.Key() {
				t.Fatalf("request plan key %s, fluent %s:\n  request schedule %s\n  fluent schedule  %s",
					plan.Key(), fluent.Key(), plan.ScheduleText(), fluent.ScheduleText())
			}
			if st := sess.CacheStats(); st.Misses != 1 || st.Hits != 1 || !plan.Stats().Cached {
				t.Fatalf("stats = %+v, cached = %t; want the request to hit the fluent plan", st, plan.Stats().Cached)
			}
		})
	}
}
