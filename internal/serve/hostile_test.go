package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"distal"
	"distal/internal/wire"
)

// TestRunRejectsHostileShapes: a few hundred bytes of JSON whose shapes
// would materialize more than the run body limit — element counts past
// makeslice's range, products that wrap int, a batch or a program
// intermediate that multiplies a legal size past the limit — are refused as
// 422 "input" before anything is allocated, and the server answers the next
// good request.
func TestRunRejectsHostileShapes(t *testing.T) {
	ts := httptest.NewServer(New(distal.NewSession(distal.NewMachine(distal.CPU, 2, 2)), Config{}))
	defer ts.Close()
	gemm := func(n, batch int) wire.RunRequest {
		q := wire.RunRequest{
			Stmt:   "A(i,j) = B(i,k) * C(k,j)",
			Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
			Inputs: map[string]string{"B": "zero", "C": "zero"},
		}
		if batch > 0 {
			q.Batch = &batch
		}
		return q
	}
	run := func(q wire.RunRequest) (int, ErrorBody) {
		t.Helper()
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var er errorResponse
		if resp.StatusCode != http.StatusOK {
			json.Unmarshal(raw, &er) //nolint:errcheck — a non-JSON body leaves Kind empty
		}
		return resp.StatusCode, er.Error
	}
	const n, k = 1 << 16, 1
	cases := []struct {
		name string
		req  wire.RunRequest
	}{
		{"elements past makeslice", gemm(1<<31, 0)},
		{"element product wraps", gemm(1<<33, 0)},
		{"batch past the limit", gemm(2048, 3)}, // 96 MiB per instance, 256 MiB limit
		{"program intermediate past the limit", wire.RunRequest{
			Shapes: map[string][]int{"A": {n, k}, "B": {k, n}, "C": {n, k}},
			Stmts: []wire.StmtSpec{
				{Stmt: "D(i,j) = A(i,r) * B(r,j)"}, // D holds n*n values
				{Stmt: "E(i,r) = D(i,j) * C(j,r)"},
			},
			Inputs: map[string]string{"A": "zero", "B": "zero", "C": "zero"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if status, eb := run(c.req); status != http.StatusUnprocessableEntity || eb.Kind != "input" {
				t.Fatalf("status %d kind %q (%s), want 422 input", status, eb.Kind, eb.Message)
			}
			if status, eb := run(gemm(16, 2)); status != http.StatusOK {
				t.Fatalf("the next good request: status %d (%s), want 200", status, eb.Message)
			}
		})
	}
}
