package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distal"
	"distal/internal/program"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// bareJSONError posts req in the curl-friendly bare-JSON form and returns
// the HTTP status with the structured error body's message.
func bareJSONError(t *testing.T, baseURL string, req wire.RunRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return resp.StatusCode, eb.Error.Message
}

// chainRunRequest is the 2-stage GEMM chain E = (A*B)*C over a 2x2 grid,
// with A riding the wire and B, C filled server-side.
func chainRunRequest(n int) wire.RunRequest {
	sched := func(out, lhs, rhs string) string {
		return "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) distribute(io,jo) " +
			"split(k,ko,ki,16) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(jo," + out + ") communicate(ko," + lhs + "," + rhs + ")"
	}
	return wire.RunRequest{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Stmts: []wire.StmtSpec{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)", Schedule: sched("D", "A", "B")},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)", Schedule: sched("E", "D", "C")},
		},
		Inputs: map[string]string{"A": wire.FillWire, "B": "rand:21", "C": "rand:22"},
	}
}

// TestRunProgramEndpoint: a multi-statement /v1/run executes the whole
// chain server-side — leaf-input frames only on the wire — and the
// streamed output matches the reference chain evaluation; the repeat
// request is served entirely from the plan cache.
func TestRunProgramEndpoint(t *testing.T) {
	const n = 32
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	req := chainRunRequest(n)
	a := tensor.New("A", n, n)
	a.FillRandom(20)
	client := &wire.Client{BaseURL: ts.URL}
	out, stats, err := client.Run(context.Background(), req, map[string]*tensor.Dense{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Output != "E" {
		t.Fatalf("output = %s, want E (the last statement's LHS)", stats.Output)
	}
	if stats.Cached {
		t.Fatal("first run reported cached")
	}
	if got := out.Shape(); len(got) != 2 || got[0] != n || got[1] != n {
		t.Fatalf("output shape = %v, want [%d %d]", got, n, n)
	}

	// Reference: the whole chain through the sequential interpreter, with
	// the fills reconstructed client-side.
	b := tensor.New("B", n, n)
	b.FillRandom(21)
	c := tensor.New("C", n, n)
	c.FillRandom(22)
	p, err := program.Parse([]program.Statement{
		{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
		{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
	}, req.Shapes)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := program.Evaluate(p, map[string]*tensor.Dense{"A": a, "B": b, "C": c})
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualWithin(ref["E"], 1e-9) {
		t.Fatalf("wire chain vs reference: max |diff| = %g", out.MaxAbsDiff(ref["E"]))
	}

	// Repeat: every stage must come from the plan cache.
	_, stats2, err := client.Run(context.Background(), req, map[string]*tensor.Dense{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Cached {
		t.Fatal("repeat run did not hit the plan cache for every stage")
	}
	if stats2.PlanKey != stats.PlanKey {
		t.Fatalf("plan key changed across identical runs: %s vs %s", stats.PlanKey, stats2.PlanKey)
	}
}

// TestRunProgramBatch: a batched multi-statement run produces one output
// frame per instance, each matching its per-instance reference.
func TestRunProgramBatch(t *testing.T) {
	const n, k = 24, 3
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	req := chainRunRequest(n)
	batch := make([]map[string]*tensor.Dense, k)
	for i := range batch {
		a := tensor.New("A", n, n)
		a.FillRandom(int64(40 + i))
		batch[i] = map[string]*tensor.Dense{"A": a}
	}
	client := &wire.Client{BaseURL: ts.URL}
	outcome, err := client.RunBatch(context.Background(), req, batch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Parse([]program.Statement{
		{Stmt: "D(i,j) = A(i,k) * B(k,j)"},
		{Stmt: "E(i,j) = D(i,k) * C(k,j)"},
	}, req.Shapes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if outcome.Errs[i] != nil {
			t.Fatalf("instance %d failed: %v", i, outcome.Errs[i])
		}
		b := tensor.New("B", n, n)
		b.FillRandom(21 + int64(i)) // per-instance fill seeds offset by index
		c := tensor.New("C", n, n)
		c.FillRandom(22 + int64(i))
		ref, err := program.Evaluate(p, map[string]*tensor.Dense{
			"A": batch[i]["A"], "B": b, "C": c,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !outcome.Outputs[i].EqualWithin(ref["E"], 1e-9) {
			t.Fatalf("instance %d: max |diff| = %g", i, outcome.Outputs[i].MaxAbsDiff(ref["E"]))
		}
	}
}

// TestRunProgramErrors: program-path failures map to the taxonomy like
// single-statement ones — parse troubles are 400, input troubles 422.
func TestRunProgramErrors(t *testing.T) {
	const n = 16
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	cases := []struct {
		name   string
		mutate func(*wire.RunRequest)
		status int
		want   string
	}{
		{
			name: "both stmt and stmts",
			mutate: func(q *wire.RunRequest) {
				q.Stmt = "X(i,j) = A(i,k) * B(k,j)"
			},
			status: 400,
			want:   "must be empty",
		},
		{
			name: "intermediate declared in shapes",
			mutate: func(q *wire.RunRequest) {
				q.Shapes["D"] = []int{n, n}
			},
			status: 400,
			want:   "Shapes declares D",
		},
		{
			name: "inputs directive for an intermediate",
			mutate: func(q *wire.RunRequest) {
				q.Inputs["D"] = "zero"
			},
			status: 400,
			want:   "inputs names D, which is not a tensor the request binds",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := chainRunRequest(n)
			tc.mutate(&req)
			// Drive the server directly: the client validates most of these
			// itself, and here the server's mapping is under test.
			req.Inputs["A"] = "rand:1" // all fills, so the bare-JSON form works
			status, msg := bareJSONError(t, ts.URL, req)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (%s)", status, tc.status, msg)
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("message %q does not contain %q", msg, tc.want)
			}
		})
	}
}

// TestRunUnknownInputOneText: an inputs directive naming a tensor the
// request does not bind is refused with one text in both request forms, the
// text wire.Client gives before sending, listing the tensors the request
// does bind in frame order.
func TestRunUnknownInputOneText(t *testing.T) {
	const n = 16
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	list := chainRunRequest(n)
	list.Inputs = map[string]string{"A": "rand:1", "D": "zero"}
	stmt := wire.RunRequest{
		Stmt:     list.Stmts[0].Stmt,
		Schedule: list.Stmts[0].Schedule,
		Shapes:   map[string][]int{"A": {n, n}, "B": {n, n}, "D": {n, n}},
		Inputs:   map[string]string{"B": "ones", "Z": "zero"},
	}
	for _, tc := range []struct {
		name string
		req  wire.RunRequest
		body string
	}{
		{"statement", stmt, `{"error":{"kind":"parse","message":"distal: run: inputs names Z, which is not a tensor the request binds (D, A, B)"}}`},
		{"statement list", list, `{"error":{"kind":"parse","message":"distal: run: inputs names D, which is not a tensor the request binds (A, B, C)"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(got)) != tc.body {
				t.Fatalf("got %d %s, want 400 %s", resp.StatusCode, got, tc.body)
			}
		})
	}
}
