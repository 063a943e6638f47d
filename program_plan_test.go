package distal

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"distal/internal/program"
	"distal/internal/tensor"
)

// chainSchedule is the SUMMA-style schedule of one GEMM stage over a 2x2
// grid, parameterized by the stage's tensor names (out, lhs, rhs).
func chainSchedule(out, lhs, rhs string) string {
	return "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) " +
		"distribute(io,jo) split(k,ko,ki,16) reorder(io,jo,ko,ii,ji,ki) " +
		"communicate(jo," + out + ") communicate(ko," + lhs + "," + rhs + ")"
}

// chainRequest is the canonical 2-stage GEMM chain E = (A*B)*C with every
// tensor tiled xy->xy, so the intermediate D hands off without repartition.
func chainRequest(n int) Request {
	return Request{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Stmts: []Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)",
				Formats:  map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"},
				Schedule: chainSchedule("D", "A", "B")},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)",
				Formats:  map[string]string{"D": "xy->xy", "C": "xy->xy", "E": "xy->xy"},
				Schedule: chainSchedule("E", "D", "C")},
		},
	}
}

func TestCompileProgramValidation(t *testing.T) {
	nn := []int{8, 8}
	cases := []struct {
		name string
		req  Request
		want string // substring of the expected error
	}{
		{
			name: "no statements",
			req:  Request{Shapes: map[string][]int{"A": nn}},
			want: "expected identifier",
		},
		{
			name: "top-level stmt set",
			req: Request{
				Stmt:   "D(i,j) = A(i,k) * B(k,j)",
				Shapes: map[string][]int{"A": nn, "B": nn},
				Stmts:  []Statement{{Stmt: "E(i,j) = A(i,k) * B(k,j)"}},
			},
			want: "must be empty",
		},
		{
			name: "intermediate name collides with Shapes",
			req: Request{
				Shapes: map[string][]int{"A": nn, "B": nn, "C": nn, "D": nn},
				Stmts: []Statement{
					{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
					{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
				},
			},
			want: "Shapes declares D",
		},
		{
			name: "cycle",
			req: Request{
				Shapes: map[string][]int{"A": nn},
				Stmts: []Statement{
					{Stmt: "D(i,j) = E(i,k) * A(k,j)"},
					{Stmt: "E(i,j) = D(i,k) * A(k,j)"},
				},
			},
			want: "dependency cycle",
		},
		{
			name: "bad statement format",
			req: Request{
				Shapes: map[string][]int{"A": nn, "B": nn},
				Stmts: []Statement{
					{Stmt: "D(i,j) = A(i,k) * B(k,j)", Formats: map[string]string{"D": "not a format"}},
				},
			},
			want: "D",
		},
	}
	sess := NewSession(NewMachine(CPU, 2, 2))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sess.Compile(context.Background(), tc.req)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if KindOf(err) != KindParse {
				t.Fatalf("KindOf = %v, want KindParse", KindOf(err))
			}
		})
	}
}

// TestCompileStatementList: Compile takes a statement list and returns a
// two-stage plan whose simulated Result is the one the chain compiled to
// before statement lists and single statements shared one compile path.
func TestCompileStatementList(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	plan, err := sess.Compile(context.Background(), chainRequest(32))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages() != 2 || plan.Repartitions() != 0 || len(plan.StageMetas()) != 2 {
		t.Fatalf("stages %d, repartitions %d, stage rows %d; want 2, 0, 2", plan.Stages(), plan.Repartitions(), len(plan.StageMetas()))
	}
	res, err := plan.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{Time: 1.467584e-05, Flops: 131072, InterBytes: 32768, Copies: 16, PeakMemBytes: 18432, OOMLeaf: -1}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Simulate = %+v, want %+v", res, want)
	}
}

// TestProgramDifferential runs the 2-stage chain as a plan DAG and as two
// sequential single-statement plans with an explicit gather/re-upload of the
// intermediate in between, across a worker-count matrix. Stage results must
// be bit-identical: the DAG's consumer reads the same canonical intermediate
// a standalone run would bind. It then pins the identity the bindings rest
// on: a one-statement program runs exactly as its plan.
func TestProgramDifferential(t *testing.T) {
	const n = 32
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(pp.Inputs(), ","); got != "A,B,C" {
		t.Fatalf("Inputs = %s, want A,B,C", got)
	}
	if pp.Output() != "E" || pp.Stages() != 2 || pp.Repartitions() != 0 {
		t.Fatalf("plan shape: output=%s stages=%d reparts=%d, want E/2/0",
			pp.Output(), pp.Stages(), pp.Repartitions())
	}

	tiled := MustFormat("xy->xy")
	mk := func(name string, seed int64) *Tensor {
		return NewTensor(name, tiled, n, n).FillRandom(seed)
	}

	for _, workers := range []int{1, 2, 4} {
		// DAG execution: one binding, intermediates stay distributed.
		a, b, c := mk("A", 1), mk("B", 2), mk("C", 3)
		pb := pp.Bind(a, b, c)
		if _, err := pb.Run(ctx, WithRealWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: DAG run: %v", workers, err)
		}

		// Sequential baseline: stage 1 alone, gather D to the host side,
		// re-upload it as an input of stage 2.
		p1, err := sess.Compile(ctx, Request{
			Stmt:     "D(i,j) = A(i,k) * B(k,j)",
			Shapes:   map[string][]int{"A": {n, n}, "B": {n, n}, "D": {n, n}},
			Formats:  map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"},
			Schedule: chainSchedule("D", "A", "B"),
		})
		if err != nil {
			t.Fatal(err)
		}
		d := NewTensor("D", tiled, n, n).Zero()
		b1 := p1.Bind(mk("A", 1), mk("B", 2), d)
		if _, err := b1.Run(ctx, WithRealWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: seq stage 1: %v", workers, err)
		}
		p2, err := sess.Compile(ctx, Request{
			Stmt:     "E(i,j) = D(i,k) * C(k,j)",
			Shapes:   map[string][]int{"D": {n, n}, "C": {n, n}, "E": {n, n}},
			Formats:  map[string]string{"D": "xy->xy", "C": "xy->xy", "E": "xy->xy"},
			Schedule: chainSchedule("E", "D", "C"),
		})
		if err != nil {
			t.Fatal(err)
		}
		d2 := NewTensor("D", tiled, n, n)
		d2.Data = d.Data // the gathered intermediate, re-uploaded
		e := NewTensor("E", tiled, n, n).Zero()
		b2 := p2.Bind(d2, mk("C", 3), e)
		if _, err := b2.Run(ctx, WithRealWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: seq stage 2: %v", workers, err)
		}

		if diff := pb.Tensor("D").MaxAbsDiff(d.Data); diff != 0 {
			t.Fatalf("workers=%d: intermediate D differs from standalone stage: max abs diff %g", workers, diff)
		}
		if diff := pb.Output().Data.MaxAbsDiff(e.Data); diff != 0 {
			t.Fatalf("workers=%d: output E differs from sequential baseline: max abs diff %g", workers, diff)
		}

		// And both must agree with the reference interpreter.
		prog, err := program.Parse([]program.Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
		}, map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := program.Evaluate(prog, map[string]*tensor.Dense{
			"A": a.Data, "B": b.Data, "C": c.Data,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !pb.Output().Data.EqualWithin(ref["E"], 1e-9) {
			t.Fatalf("workers=%d: DAG output diverges from reference: max abs diff %g",
				workers, pb.Output().Data.MaxAbsDiff(ref["E"]))
		}
	}

	// A one-statement program is the plan its statement compiles to: the
	// same outputs bit for bit and the same Results, simulated and real, at
	// every worker count and batch size.
	formats := map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"}
	p, err := sess.Compile(ctx, Request{
		Stmt:     "D(i,j) = A(i,k) * B(k,j)",
		Shapes:   map[string][]int{"A": {n, n}, "B": {n, n}, "D": {n, n}},
		Formats:  formats,
		Schedule: chainSchedule("D", "A", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	one, err := sess.Compile(ctx, Request{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}},
		Stmts:  []Statement{{Stmt: "D(i,j) = A(i,k) * B(k,j)", Formats: formats, Schedule: chainSchedule("D", "A", "B")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.Simulate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := one.Simulate(ctx); err != nil || !reflect.DeepEqual(got, sim) {
		t.Fatalf("one-statement program Simulate = %+v (err %v), plan Simulate %+v", got, err, sim)
	}
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 3} {
			var planInsts, progInsts [][]*Tensor
			for i := range batch {
				planInsts = append(planInsts, []*Tensor{mk("A", int64(10+i)), mk("B", int64(20+i)), NewTensor("D", tiled, n, n).Zero()})
				progInsts = append(progInsts, []*Tensor{mk("A", int64(10+i)), mk("B", int64(20+i))})
			}
			pbb, qbb := p.BindBatch(planInsts...), one.BindBatch(progInsts...)
			want, err := pbb.Run(ctx, WithRealWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			got, err := qbb.Run(ctx, WithRealWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if !reflect.DeepEqual(got[i], want[i]) || !reflect.DeepEqual(got[i], sim) {
					t.Fatalf("workers=%d batch=%d instance %d: program Result %+v, plan Result %+v, Simulate %+v",
						workers, batch, i, got[i], want[i], sim)
				}
				g, w := qbb.Output(i).Data.Data(), pbb.Output(i).Data.Data()
				for v := range w {
					if math.Float64bits(g[v]) != math.Float64bits(w[v]) {
						t.Fatalf("workers=%d batch=%d instance %d value %d: program %v, plan %v (bit-identical required)",
							workers, batch, i, v, g[v], w[v])
					}
				}
			}
		}
	}
}

// TestProgramSimBeatsSequential asserts the DAG moves strictly fewer
// inter-node bytes than the sequential baseline, where the baseline pays the
// two stages plus the gather-to-root and re-upload of the intermediate that
// sequential single-statement execution implies.
func TestProgramSimBeatsSequential(t *testing.T) {
	const n = 256
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	dag, err := pp.Simulate(ctx, WithTrace())
	if err != nil {
		t.Fatal(err)
	}

	// Zero gather-to-root copies of the intermediate: no traced copy moves
	// the full volume of D in one piece.
	for _, cr := range dag.Trace {
		if cr.Region == "D" && cr.Rect.Volume() == n*n {
			t.Fatalf("DAG gathered intermediate D to one leaf: %+v", cr)
		}
	}

	stage := func(stmt, out, lhs, rhs string) *Result {
		p, err := sess.Compile(ctx, Request{
			Stmt:     stmt,
			Shapes:   map[string][]int{lhs: {n, n}, rhs: {n, n}, out: {n, n}},
			Formats:  map[string]string{lhs: "xy->xy", rhs: "xy->xy", out: "xy->xy"},
			Schedule: chainSchedule(out, lhs, rhs),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Simulate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s1 := stage("D(i,j) = A(i,k) * B(k,j)", "D", "A", "B")
	s2 := stage("E(i,j) = D(i,k) * C(k,j)", "E", "D", "C")

	// Sequential inter-stage traffic: D leaves the machine through leaf
	// (0,0) and comes back the same way (initial placement is priced free,
	// so the via-root legs are the honest cost of the handoff).
	down, _, err := sess.RedistributeCost(NewTensor("D", MustFormat("xy->xy"), n, n), MustFormat("xy->00"))
	if err != nil {
		t.Fatal(err)
	}
	up, _, err := sess.RedistributeCost(NewTensor("D", MustFormat("xy->00"), n, n), MustFormat("xy->xy"))
	if err != nil {
		t.Fatal(err)
	}
	seq := s1.InterBytes + s2.InterBytes + down + up
	if dag.InterBytes >= seq {
		t.Fatalf("DAG inter-node bytes %d not below sequential baseline %d", dag.InterBytes, seq)
	}
}

// TestProgramPlanCaching: recompiling the same program is fully cached, with
// a stable key; compiling a program sharing one statement reuses that stage.
func TestProgramPlanCaching(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp1, err := sess.Compile(ctx, chainRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if pp1.Stats().Cached {
		t.Fatal("first compile reported cached")
	}
	pp2, err := sess.Compile(ctx, chainRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if !pp2.Stats().Cached {
		t.Fatal("second compile was not fully cached")
	}
	if pp1.Key() != pp2.Key() {
		t.Fatalf("keys differ: %s vs %s", pp1.Key(), pp2.Key())
	}
}

// TestProgramRepartition: when producer and consumer disagree on the
// intermediate's format, an explicit repartition stage appears and the
// numerics still match the reference chain.
func TestProgramRepartition(t *testing.T) {
	const n = 32
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	req := Request{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Stmts: []Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)",
				Formats: map[string]string{"A": "xy->xy", "B": "xy->xy", "D": "xy->xy"}},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)",
				Formats: map[string]string{"D": "xy->x*", "C": "xy->xy", "E": "xy->xy"}},
		},
	}
	pp, err := sess.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Stages() != 3 || pp.Repartitions() != 1 {
		t.Fatalf("stages=%d reparts=%d, want 3/1", pp.Stages(), pp.Repartitions())
	}
	tiled := MustFormat("xy->xy")
	a := NewTensor("A", tiled, n, n).FillRandom(7)
	b := NewTensor("B", tiled, n, n).FillRandom(8)
	c := NewTensor("C", tiled, n, n).FillRandom(9)
	pb := pp.Bind(a, b, c)
	if _, err := pb.Run(ctx); err != nil {
		t.Fatal(err)
	}
	prog, err := program.Parse([]program.Statement{
		{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
		{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
	}, map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := program.Evaluate(prog, map[string]*tensor.Dense{"A": a.Data, "B": b.Data, "C": c.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Output().Data.EqualWithin(ref["E"], 1e-9) {
		t.Fatalf("repartitioned chain diverges from reference: max abs diff %g",
			pb.Output().Data.MaxAbsDiff(ref["E"]))
	}
}

// TestProgramBindErrors: only leaf inputs bind; everything else is a typed
// KindExec error.
func TestProgramBindErrors(t *testing.T) {
	const n = 16
	sess := NewSession(NewMachine(CPU, 2, 2))
	pp, err := sess.Compile(context.Background(), chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	tiled := MustFormat("xy->xy")
	a := NewTensor("A", tiled, n, n).FillRandom(1)
	b := NewTensor("B", tiled, n, n).FillRandom(2)
	c := NewTensor("C", tiled, n, n).FillRandom(3)
	cases := []struct {
		name string
		bind []*Tensor
		want string
	}{
		{"computed tensor", []*Tensor{a, b, c, NewTensor("D", tiled, n, n).Zero()}, "computed by the program"},
		{"unknown tensor", []*Tensor{a, b, c, NewTensor("X", tiled, n, n).Zero()}, "no tensor X"},
		{"missing leaf", []*Tensor{a, b}, "no data bound for tensor C"},
		{"wrong shape", []*Tensor{a, b, NewTensor("C", tiled, n, 2*n).Zero()}, "shape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pb := pp.Bind(tc.bind...)
			_, err := pb.Run(context.Background())
			if err == nil {
				t.Fatal("Run succeeded on a bad binding")
			}
			if !strings.Contains(err.Error(), tc.want) || KindOf(err) != KindExec {
				t.Fatalf("error = %v (kind %v), want KindExec containing %q", err, KindOf(err), tc.want)
			}
		})
	}
}

// TestProgramBatch: a batched chain produces per-instance results equal to
// per-instance single runs, and so does the same batch bound stacked.
func TestProgramBatch(t *testing.T) {
	const n, k = 24, 3
	sess := NewSession(NewMachine(CPU, 2, 2))
	ctx := context.Background()
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	tiled := MustFormat("xy->xy")
	var insts [][]*Tensor
	for i := 0; i < k; i++ {
		insts = append(insts, []*Tensor{
			NewTensor("A", tiled, n, n).FillRandom(int64(10 + i)),
			NewTensor("B", tiled, n, n).FillRandom(int64(20 + i)),
			NewTensor("C", tiled, n, n).FillRandom(int64(30 + i)),
		})
	}
	bb := pp.BindBatch(insts...)
	results, err := bb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != k {
		t.Fatalf("got %d results, want %d", len(results), k)
	}
	// The leaf inputs stacked along a leading batch dimension; the program
	// allocates each instance's output itself.
	var stacked []*Tensor
	for j, name := range []string{"A", "B", "C"} {
		st := &Tensor{Name: name, Data: tensor.New(name, k, n, n)}
		for i := range k {
			copy(st.Data.Data()[i*n*n:(i+1)*n*n], insts[i][j].Data.Data())
		}
		stacked = append(stacked, st)
	}
	sb := pp.BindStacked(k, stacked...)
	if _, err := sb.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		single := pp.Bind(insts[i]...)
		if _, err := single.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if diff := bb.Output(i).Data.MaxAbsDiff(single.Output().Data); diff != 0 {
			t.Fatalf("instance %d differs from single run: max abs diff %g", i, diff)
		}
		if diff := sb.Output(i).Data.MaxAbsDiff(single.Output().Data); diff != 0 {
			t.Fatalf("stacked instance %d differs from single run: max abs diff %g", i, diff)
		}
	}
}

// chainInputs is one instance's leaf inputs of chainRequest(n), keyed by seed.
func chainInputs(n int, seed int64) []*Tensor {
	tiled := MustFormat("xy->xy")
	return []*Tensor{
		NewTensor("A", tiled, n, n).FillRandom(seed),
		NewTensor("B", tiled, n, n).FillRandom(seed + 1),
		NewTensor("C", tiled, n, n).FillRandom(seed + 2),
	}
}

// bitsEqual fails the test unless got and want hold the same bits.
func bitsEqual(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: %d values, want %d", what, len(g), len(w))
	}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s value %d: %v, want %v (bit-identical required)", what, i, g[i], w[i])
		}
	}
}

// TestProgramPoolConcurrent runs one statement list's plan from 8
// goroutines, each a few batched runs on its own data, so pooled
// intermediates move between runs and goroutines: every output must equal
// its sequential Binding run bit for bit (run with -race).
func TestProgramPoolConcurrent(t *testing.T) {
	const n, goroutines, runs, batch = 16, 8, 3, 2
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	seed := func(g, r, i int) int64 { return int64(1000*g + 100*r + 10*i) }
	want := map[int64]*tensor.Dense{}
	for g := range goroutines {
		for r := range runs {
			for i := range batch {
				pb := pp.Bind(chainInputs(n, seed(g, r, i))...)
				if _, err := pb.Run(ctx); err != nil {
					t.Fatal(err)
				}
				want[seed(g, r, i)] = pb.Output().Data
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	got := make([]map[int64]*tensor.Dense, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = map[int64]*tensor.Dense{}
			for r := range runs {
				insts := make([][]*Tensor, batch)
				for i := range insts {
					insts[i] = chainInputs(n, seed(g, r, i))
				}
				bb := pp.BindBatch(insts...)
				if _, err := bb.Run(ctx, WithRealWorkers(2)); err != nil {
					errs[g] = err
					return
				}
				for i := range insts {
					got[g][seed(g, r, i)] = bb.Output(i).Data
				}
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for s, out := range got[g] {
			bitsEqual(t, fmt.Sprintf("goroutine %d seed %d", g, s), out, want[s])
		}
	}
}

// TestCanceledBatchRunReturnsIntermediates: a batched run canceled after its
// first stage has filled the pooled intermediates gives them back dirty; the
// next run borrows them and must clear them first, so its output is
// bit-identical to a Binding's, which allocates its own (and keeps them for
// Binding.Tensor, which TestProgramDifferential reads). Between runs neither
// batch binding holds an intermediate.
func TestCanceledBatchRunReturnsIntermediates(t *testing.T) {
	const n = 32
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2))
	pp, err := sess.Compile(ctx, chainRequest(n))
	if err != nil {
		t.Fatal(err)
	}
	// Count a whole serial run's context polls (the first run also builds
	// the tape), then cancel three quarters in: inside the second stage,
	// after the first has computed D.
	counted := cancelAfterPolls(math.MaxInt64)
	if _, err := pp.BindBatch(chainInputs(n, 1)).Run(counted, WithRealWorkers(1)); err != nil {
		t.Fatal(err)
	}
	polls := counted.polls.Load()
	canceled := pp.BindBatch(chainInputs(n, 1))
	if _, err := canceled.Run(cancelAfterPolls(3*polls/4), WithRealWorkers(1)); KindOf(err) != KindCanceled {
		t.Fatalf("canceled run: kind %v (err %v), want KindCanceled", KindOf(err), err)
	}
	in := chainInputs(n, 7)
	bb := pp.BindBatch(in)
	if _, err := bb.Run(ctx, WithRealWorkers(1)); err != nil {
		t.Fatal(err)
	}
	pb := pp.Bind(chainInputs(n, 7)...)
	if _, err := pb.Run(ctx, WithRealWorkers(1)); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "run after a canceled run", bb.Output(0).Data, pb.Output().Data)
	for _, b := range []*BatchBinding{canceled, bb} {
		if _, held := b.insts[0]["D"]; held {
			t.Fatal("a BatchBinding holds its pooled intermediate D between runs")
		}
	}
}

// TestProgramMemo: a repeated program request resolves through the request
// memo to the DAG it compiled to — one handle's analysis serves the next —
// counting a plan-cache hit per stage; the entry dies when a stage plan
// leaves the plan cache, and a session without a cache memoizes nothing.
func TestProgramMemo(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(NewMachine(CPU, 2, 2), WithPlanCacheSize(2))
	req := chainRequest(16)
	first, err := sess.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sess.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.planData != first.planData || !again.Stats().Cached || again.Stats().CompileTime != 0 {
		t.Fatalf("repeat compile: shared=%v stats=%+v, want the memoized DAG, cached", again.planData == first.planData, again.Stats())
	}
	if first.Stats().Cached {
		t.Fatal("a handle's stats changed when another handle shared its DAG")
	}
	if st := sess.CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (the cold stages) and a hit per stage on the repeat", st)
	}
	for _, sm := range again.StageMetas() {
		if !sm.Cached {
			t.Fatalf("memo-resolved stage %s reports cached=false", sm.Output)
		}
	}

	// A third plan evicts stage 0's, the least recently used.
	if _, err := sess.Compile(ctx, gemmRequest(16)); err != nil {
		t.Fatal(err)
	}
	ck := canonicalRequest(req)
	sess.mu.Lock()
	_, resident := sess.memo[ck]
	for k, cks := range sess.byPlan {
		for _, c := range cks {
			if _, ok := sess.memo[c]; !ok {
				t.Errorf("byPlan[%s] names a request the memo no longer holds", k)
			}
		}
	}
	sess.mu.Unlock()
	if resident {
		t.Fatal("the program's memo entry outlived its evicted stage plan")
	}
	third, err := sess.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if third.planData == first.planData || third.Stats().Cached {
		t.Fatalf("after eviction: shared=%v cached=%v, want a fresh compile of the evicted stage",
			third.planData == first.planData, third.Stats().Cached)
	}
	if third.Key() != first.Key() {
		t.Fatalf("recompiled program key %s, want %s", third.Key(), first.Key())
	}

	off := NewSession(NewMachine(CPU, 2, 2), WithPlanCacheSize(0))
	p1, err := off.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := off.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if p1.planData == p2.planData || off.CacheStats().MemoEntries != 0 {
		t.Fatal("a session without a plan cache memoized a program")
	}
}

// TestCompileListSingleflight: concurrent identical statement-list compiles
// share one DAG payload and run the compiler once per stage; every other
// caller counts a hit per stage, whether the memo or the shared flight
// served it (run with -race).
func TestCompileListSingleflight(t *testing.T) {
	const callers = 8
	sess := NewSession(NewMachine(CPU, 2, 2))
	plans := make([]*Plan, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = sess.Compile(context.Background(), chainRequest(32))
		}(i)
	}
	wg.Wait()
	for i, p := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if p.planData != plans[0].planData {
			t.Fatalf("caller %d got its own DAG payload", i)
		}
	}
	if st := sess.CacheStats(); st.Misses != 2 || st.Hits != 2*(callers-1) {
		t.Fatalf("cache stats %+v, want 2 misses and %d hits", st, 2*(callers-1))
	}
}
