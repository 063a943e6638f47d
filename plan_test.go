package distal

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distal/internal/ir"
	"distal/internal/tensor"
)

// bigRequest is a request whose compile and simulate both take tens of
// milliseconds (a 32-launch SUMMA pipeline over a 32x32 launch domain), so
// a context canceled 2ms in is observed by the periodic checkpoints well
// before the work finishes — not just by the entry checks.
func bigRequest() Request {
	const n = 2048
	return Request{
		Stmt: gemmStmt,
		Shapes: map[string][]int{
			"A": {n, n}, "B": {n, n}, "C": {n, n},
		},
		Schedule: "divide(i,io,ii,32) divide(j,jo,ji,32) reorder(io,jo,ii,ji) " +
			"distribute(io,jo) split(k,ko,ki,64) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(jo,A) communicate(ko,B,C)",
	}
}

// TestPlanBindRun: the Plan lifecycle end to end — a data-free cached plan
// binds caller-owned tensors per execution and produces the reference
// result, and a second binding of different data through the same shared
// plan computes independently.
// bigLaunchRequest compiles to a single launch of 64x64 distributed points
// with no sequential loop, so materialization splits that one launch into
// point ranges.
func bigLaunchRequest() Request {
	const n = 2048
	return Request{
		Stmt: gemmStmt,
		Shapes: map[string][]int{
			"A": {n, n}, "B": {n, n}, "C": {n, n},
		},
		Schedule: "divide(i,io,ii,64) divide(j,jo,ji,64) reorder(io,jo,ii,ji) distribute(io,jo)",
	}
}

func TestPlanBindRun(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(16))
	if err != nil {
		t.Fatal(err)
	}

	f := MustFormat("xy->xy")
	runOnce := func(seed int64) *tensor.Dense {
		A := NewTensor("A", f, 16, 16).Zero()
		B := NewTensor("B", f, 16, 16).FillRandom(seed)
		C := NewTensor("C", f, 16, 16).FillRandom(seed + 1)
		b := plan.Bind(A, B, C)
		res, err := b.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Time <= 0 || res.Flops <= 0 {
			t.Fatalf("implausible result: %+v", res)
		}
		stmt, err := ir.Parse(gemmStmt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ir.Evaluate(stmt, map[string]*tensor.Dense{"B": B.Data, "C": C.Data})
		if err != nil {
			t.Fatal(err)
		}
		out := b.Output()
		if out == nil || out.Data == nil {
			t.Fatal("binding lost its output tensor")
		}
		if !out.Data.EqualWithin(want, 1e-9) {
			t.Fatalf("seed %d: plan-bound run produced a wrong product", seed)
		}
		return out.Data
	}
	r1 := runOnce(1)
	r2 := runOnce(42)
	if r1.EqualWithin(r2, 1e-9) {
		t.Fatal("different bound data produced identical results: bindings are not per-execution")
	}
	// The real-mode runs rode on the single cached plan.
	if st := sess.CacheStats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want one compile for the shared plan", st)
	}
}

// TestPlanBindRunConcurrent: many goroutines run real-mode executions of
// one shared cached plan on private data (run under -race).
func TestPlanBindRunConcurrent(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	f := MustFormat("xy->xy")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			A := NewTensor("A", f, 16, 16).Zero()
			B := NewTensor("B", f, 16, 16).FillRandom(seed)
			C := NewTensor("C", f, 16, 16).FillRandom(seed + 1)
			if _, err := plan.Bind(A, B, C).Run(ctx); err != nil {
				errs <- err
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPlanBindErrors(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(ctx, gemmRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	f := MustFormat("xy->xy")
	A := NewTensor("A", f, 16, 16).Zero()
	B := NewTensor("B", f, 16, 16).FillRandom(1)
	C := NewTensor("C", f, 16, 16).FillRandom(2)
	cases := map[string]*Binding{
		"missing tensor": plan.Bind(A, B),
		"unknown tensor": plan.Bind(A, B, C, NewTensor("D", f, 16, 16).Zero()),
		"no data":        plan.Bind(A, B, NewTensor("C", f, 16, 16)),
		"wrong shape":    plan.Bind(A, B, NewTensor("C", f, 8, 8).Zero()),
	}
	for name, b := range cases {
		_, err := b.Run(ctx)
		if err == nil {
			t.Errorf("%s: Run succeeded, want error", name)
			continue
		}
		if KindOf(err) != KindExec {
			t.Errorf("%s: kind = %v, want KindExec (err: %v)", name, KindOf(err), err)
		}
	}
}

func TestErrorKinds(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	shapes := map[string][]int{"A": {8, 8}, "B": {8, 8}, "C": {8, 8}}
	cases := []struct {
		name string
		req  Request
		kind ErrKind
	}{
		{"parse", Request{Stmt: "A(i,j) ="}, KindParse},
		{"missing shape", Request{Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 8}}}, KindParse},
		{"bad format", Request{Stmt: gemmStmt, Shapes: shapes, Formats: map[string]string{"A": "xy->>xy"}}, KindParse},
		{"negative extents", Request{Stmt: gemmStmt, Shapes: map[string][]int{"A": {-3, -3}, "B": {-3, -3}, "C": {-3, -3}},
			Schedule: "divide(i,io,ii,2) reorder(io,ii,j,k) distribute(io) communicate(io,A,B,C)"}, KindParse},
		{"zero extent", Request{Stmt: gemmStmt, Shapes: map[string][]int{"A": {8, 0}, "B": {8, 8}, "C": {8, 0}}}, KindParse},
		{"bad schedule", Request{Stmt: gemmStmt, Shapes: shapes, Schedule: "divide(i,io,ii)"}, KindSchedule},
		{"unknown variable", Request{Stmt: gemmStmt, Shapes: shapes, Schedule: "divide(zz,io,ii,2)"}, KindSchedule},
	}
	for _, c := range cases {
		_, err := sess.Compile(ctx, c.req)
		if err == nil {
			t.Errorf("%s: Compile succeeded, want error", c.name)
			continue
		}
		if got := KindOf(err); got != c.kind {
			t.Errorf("%s: kind = %v, want %v (err: %v)", c.name, got, c.kind, err)
		}
		var de *Error
		if !errors.As(err, &de) {
			t.Errorf("%s: error %v is not a *distal.Error", c.name, err)
		}
		if !errors.Is(err, &Error{Kind: c.kind}) {
			t.Errorf("%s: errors.Is against kind sentinel failed", c.name)
		}
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

// waitGoroutines polls until the goroutine count drops back to within a
// small slack of the baseline (the runtime needs a moment to retire
// finished goroutines) and fails the test if it never does.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// promptPolls bounds the context polls a canceled compile or simulation may
// make past the poll that reported cancellation: each of at most eight
// materialization workers, or the one event loop, stops at its next
// checkpoint. A count, unlike elapsed time, does not depend on the machine.
const promptPolls = 16

func TestCompileCancellation(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4, 4))
	// Already-canceled context: rejected at the door.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Compile(ctx, gemmRequest(64)); KindOf(err) != KindCanceled {
		t.Fatalf("pre-canceled compile: kind = %v, want KindCanceled", KindOf(err))
	}
	if _, err := sess.Compile(ctx, gemmRequest(64)); !errors.Is(err, context.Canceled) {
		t.Fatal("canceled compile must match errors.Is(err, context.Canceled)")
	}

	// Mid-compile: the context starts reporting cancellation a few Err()
	// polls in — past the entry checks, observed by the materialization
	// workers' periodic checkpoints — and the abort must be classified and
	// prompt. A finished compile of the multi-launch request polls 67 times,
	// of the single-launch one 8 times at GOMAXPROCS 1.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		name  string
		req   Request
		procs int
	}{
		{"multiLaunch", bigRequest(), prev},
		{"singleLaunch/procs=1", bigLaunchRequest(), 1},
		{"singleLaunch/procs=4", bigLaunchRequest(), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(tc.procs)
			sess := NewSession(NewMachine(CPU, 4, 4))
			baseline := runtime.NumGoroutine()
			ctx := cancelAfterPolls(3)
			_, err := sess.Compile(ctx, tc.req)
			if KindOf(err) != KindCanceled {
				t.Fatalf("mid-compile cancel: kind = %v (err %v), want KindCanceled", KindOf(err), err)
			}
			// Prompt means every materialization worker stops at its next
			// checkpoint: a few polls past the threshold.
			if polls := ctx.polls.Load(); polls <= 3 || polls > 3+promptPolls {
				t.Fatalf("%d context polls, want a few past the threshold of 3", polls)
			}
			waitGoroutines(t, baseline)

			// The canceled compile must not have poisoned the cache: a live
			// context compiles the same request successfully afterwards.
			if _, err := sess.Compile(context.Background(), tc.req); err != nil {
				t.Fatalf("compile after canceled attempt failed: %v", err)
			}
		})
	}
}

func TestSimulateCancellation(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4, 4))
	plan, err := sess.Compile(context.Background(), bigRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Simulate(ctx); KindOf(err) != KindCanceled {
		t.Fatalf("pre-canceled simulate: kind = %v, want KindCanceled", KindOf(err))
	}

	baseline := runtime.NumGoroutine()
	ctx2 := cancelAfterPolls(3)
	_, err = plan.Simulate(ctx2)
	if KindOf(err) != KindCanceled {
		t.Fatalf("mid-simulate cancel: kind = %v (err %v), want KindCanceled", KindOf(err), err)
	}
	// Prompt means the event loop stops at its next checkpoint: a finished
	// simulation of this plan polls 161 times.
	if polls := ctx2.polls.Load(); polls <= 3 || polls > 3+promptPolls {
		t.Fatalf("%d context polls, want a few past the threshold of 3", polls)
	}
	waitGoroutines(t, baseline)

	// The plan is unharmed: a live context still simulates.
	if _, err := plan.Simulate(context.Background()); err != nil {
		t.Fatalf("simulate after canceled attempt failed: %v", err)
	}
}

// TestCompileSingleflight: M concurrent identical Compile calls yield
// exactly one cache miss; everyone gets the same plan.
func TestCompileSingleflight(t *testing.T) {
	const m = 16
	sess := NewSession(NewMachine(CPU, 4, 4))
	var (
		gate  = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		keys  = map[string]bool{}
		nErrs int
	)
	for g := 0; g < m; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			plan, err := sess.Compile(context.Background(), bigRequest())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				nErrs++
				return
			}
			keys[plan.Key()] = true
		}()
	}
	close(gate)
	wg.Wait()
	if nErrs > 0 {
		t.Fatalf("%d concurrent compiles failed", nErrs)
	}
	if len(keys) != 1 {
		t.Fatalf("concurrent compiles produced %d distinct plan keys", len(keys))
	}
	st := sess.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one cache miss across %d concurrent compiles", st, m)
	}
	if st.Hits != m-1 {
		t.Fatalf("stats = %+v, want %d shared/cached hits", st, m-1)
	}
}

// TestSingleflightCanceledLeader: waiters whose context is alive must not
// inherit the leader's cancellation — they retry and compile successfully.
func TestSingleflightCanceledLeader(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4, 4))
	// The leader is held inside its flight (at the compiler's entry check)
	// until the follower is parked on that flight; then the leader's
	// context reports cancellation.
	leaderCtx := newGateCtx()
	followerCtx := &doneSignalCtx{Context: context.Background(), waiting: make(chan struct{})}
	leaderOut := make(chan error, 1)
	go func() {
		_, err := sess.Compile(leaderCtx, bigRequest())
		leaderOut <- err
	}()
	<-leaderCtx.entered
	type outcome struct {
		plan *Plan
		err  error
	}
	followerOut := make(chan outcome, 1)
	go func() {
		plan, err := sess.Compile(followerCtx, bigRequest())
		followerOut <- outcome{plan, err}
	}()
	<-followerCtx.waiting
	close(leaderCtx.release)
	if err := <-leaderOut; KindOf(err) != KindCanceled {
		t.Fatalf("leader: kind = %v (err %v), want KindCanceled", KindOf(err), err)
	}

	// The follower, whose context is alive, must end up with a valid plan
	// although it joined the canceled leader's flight.
	got := <-followerOut
	if got.err != nil {
		t.Fatalf("follower inherited the leader's fate: %v", got.err)
	}
	if got.plan.Key() == "" {
		t.Fatal("follower got an empty plan")
	}
}

// TestMemoEvictionTiedToPlanCache: evicting a plan drops the memo entries
// pointing at it, and the memo never outgrows its own bound.
func TestMemoEvictionTiedToPlanCache(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2), WithPlanCacheSize(2))
	for _, n := range []int{16, 32, 48} {
		if _, err := sess.Compile(ctx, gemmRequest(n)); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.CacheStats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 after eviction", st.Entries)
	}
	// n=16's plan was evicted; its memo entry must be gone with it.
	if st.MemoEntries != 2 {
		t.Fatalf("memo entries = %d, want 2 (evicted plan's memo entry must die with it)", st.MemoEntries)
	}
	// Re-compiling the evicted request is a fresh miss, not a stale memo hit.
	if _, err := sess.Compile(ctx, gemmRequest(16)); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 misses (the evicted plan recompiles)", st)
	}
}
