package distal

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"distal/internal/algorithms"
	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/tensor"
)

// stageCase is one of internal/algorithms' requests at test size, on the
// machine the algorithm writes it for.
type stageCase struct {
	name string
	m    *Machine
	req  Request
}

// oneStageCases lists the six Fig. 9 matmul requests and the higher-order
// TTV, TTM and MTTKRP requests.
func oneStageCases(t *testing.T) []stageCase {
	var cases []stageCase
	add := func(name string) func(*machine.Machine, Request, error) {
		return func(m *machine.Machine, req Request, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cases = append(cases, stageCase{name, &Machine{M: m}, req})
		}
	}
	for _, alg := range algorithms.MatmulAlgs {
		add(string(alg))(algorithms.MatmulRequest(alg, algorithms.MatmulConfig{N: 24, Procs: 8}))
	}
	hc := algorithms.HigherConfig{I: 16, J: 12, K: 8, L: 4, Procs: 8}
	add("ttv")(algorithms.TTVRequest(hc))
	add("ttm")(algorithms.TTMRequest(hc))
	add("mttkrp")(algorithms.MTTKRPRequest(hc))
	return cases
}

// asStatementList rewrites a statement request as its one-element Stmts
// twin: the statement, its formats and its schedule move into Stmts[0], and
// the output's shape is left to inference.
func asStatementList(req Request) Request {
	out := ir.MustParse(req.Stmt).LHS.Tensor
	shapes := map[string][]int{}
	for name, shape := range req.Shapes {
		if name != out {
			shapes[name] = shape
		}
	}
	return Request{Shapes: shapes, Stmts: []Statement{{Stmt: req.Stmt, Formats: req.Formats, Schedule: req.Schedule}}}
}

// bindAll builds one tensor per name: the output zeroed, every other tensor
// filled from a seed derived from its name, so two bindings of the same
// names hold equal data in distinct allocations.
func bindAll(names []string, output string, shapes func(string) []int) []*Tensor {
	var ts []*Tensor
	for _, name := range names {
		d := tensor.New(name, shapes(name)...)
		if name != output {
			d.FillRandom(int64(name[0]))
		}
		ts = append(ts, &Tensor{Name: name, Shape: d.Shape(), Data: d})
	}
	return ts
}

// TestOneStageMatchesStatement compiles every algorithm request in its
// statement form and as a one-element statement list on one session. The
// list's one stage resolves through the statement's plan-cache entry, and
// both handles give equal Results, equal copy traces and bit-identical Real
// outputs at one and four workers. It also pins what still differs between
// the forms: the list binds its leaf inputs only and allocates the output.
func TestOneStageMatchesStatement(t *testing.T) {
	ctx := context.Background()
	for _, tc := range oneStageCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			sess := NewSession(tc.m)
			plan, err := sess.Compile(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			one, err := sess.Compile(ctx, asStatementList(tc.req))
			if err != nil {
				t.Fatal(err)
			}
			if st := sess.CacheStats(); st.Misses != 1 || st.Hits != 1 {
				t.Fatalf("cache stats %+v, want the stage served by the statement's plan (1 miss, 1 hit)", st)
			}
			for _, opts := range [][]ExecOption{nil, {WithTrace()}} {
				want, err := plan.Simulate(ctx, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := one.Simulate(ctx, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Simulate(%d options): list %+v, statement %+v", len(opts), got, want)
				}
			}

			out := plan.Output()
			for _, workers := range []int{1, 4} {
				pb := plan.Bind(bindAll(plan.Inputs(), out, plan.Shape)...)
				want, err := pb.Run(ctx, WithRealWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				ob := one.Bind(bindAll(one.Inputs(), out, one.Shape)...)
				got, err := ob.Run(ctx, WithRealWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: list Result %+v, statement Result %+v", workers, got, want)
				}
				g, w := ob.Output().Data.Data(), pb.Output().Data.Data()
				if len(g) != len(w) {
					t.Fatalf("workers=%d: list output has %d values, statement %d", workers, len(g), len(w))
				}
				for i := range w {
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Fatalf("workers=%d value %d: list %v, statement %v (bit-identical required)", workers, i, g[i], w[i])
					}
				}
			}

			// Output binding: the statement binds every tensor, its output
			// included; the list binds its leaf inputs and allocates the
			// output, so binding the output is an error.
			if one.Output() != out || !slices.Contains(plan.Inputs(), out) || slices.Contains(one.Inputs(), out) {
				t.Fatalf("statement binds %v, list binds %v; output %s (list %s)", plan.Inputs(), one.Inputs(), out, one.Output())
			}
			want := slices.DeleteFunc(slices.Clone(plan.Inputs()), func(n string) bool { return n == out })
			if !slices.Equal(one.Inputs(), want) {
				t.Fatalf("list binds %v, want the statement's inputs %v", one.Inputs(), want)
			}
			bound := bindAll(plan.Inputs(), out, plan.Shape)
			if _, err := one.Bind(bound...).Run(ctx); err == nil {
				t.Fatal("the list accepted a bound output")
			}

			// Key: a one-stage plan's key is its stage's plan key. Only the
			// list reports stage rows.
			if one.Key() != plan.Key() {
				t.Fatalf("list key %s, statement key %s", one.Key(), plan.Key())
			}
			if len(one.StageMetas()) != 1 || len(plan.StageMetas()) != 0 {
				t.Fatalf("stage rows: list %d, statement %d; want 1 and none", len(one.StageMetas()), len(plan.StageMetas()))
			}
		})
	}
}

// TestOneStageErrorTexts pins what the two request forms answer to the
// same faults: a missing or declared output shape, and a bad schedule.
func TestOneStageErrorTexts(t *testing.T) {
	m, req, err := algorithms.MatmulRequest(algorithms.SUMMA, algorithms.MatmulConfig{N: 24, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(&Machine{M: m})
	ctx := context.Background()

	// The statement form declares its output's shape; the list infers it
	// and rejects a declaration.
	noOut := req
	noOut.Shapes = map[string][]int{"B": {24, 24}, "C": {24, 24}}
	declared := asStatementList(req)
	declared.Shapes["A"] = []int{24, 24}
	badSched := req
	badSched.Schedule = "divide(i,io,ii)"

	for _, c := range []struct {
		name    string
		req     Request
		kind    ErrKind
		message string
	}{
		{"statement without output shape", noOut, KindParse,
			"distal: compile: request has no shape for tensor A"},
		{"list declaring its output", declared, KindParse,
			"distal: compile: program: Shapes declares A, which statement 0 computes; intermediate shapes are inferred from their producer"},
		{"statement with a bad schedule", badSched, KindSchedule,
			"distal: compile: schedule: parse: divide takes (var, outer, inner, n), got 3 args"},
		{"list with a bad schedule", asStatementList(badSched), KindSchedule,
			"distal: compile: statement 0: schedule: parse: divide takes (var, outer, inner, n), got 3 args"},
	} {
		_, err := sess.Compile(ctx, c.req)
		if err == nil || err.Error() != c.message || KindOf(err) != c.kind {
			t.Errorf("%s: error %v (kind %v), want %q (%v)", c.name, err, KindOf(err), c.message, c.kind)
		}
	}
}
