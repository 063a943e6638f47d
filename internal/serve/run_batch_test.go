package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distal"
	"distal/internal/ir"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// batchFramed assembles a raw batched /v1/run body: the JSON envelope
// followed by the given frames back to back (instance-major when the caller
// orders them that way).
func batchFramed(t *testing.T, req wire.RunRequest, frames ...*tensor.Dense) []byte {
	t.Helper()
	var buf bytes.Buffer
	envelope, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteJSONSection(&buf, envelope); err != nil {
		t.Fatal(err)
	}
	if err := wire.EncodeFrames(&buf, frames...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunBatchEndpoint: the wire-level tentpole check. A batched run of each
// example workload must hand every instance back bit-identical to an
// in-process single-instance Bind.Run of the same data, through exactly one
// compile.
func TestRunBatchEndpoint(t *testing.T) {
	for _, c := range runCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sess := distal.NewSession(c.machine)
			ts := httptest.NewServer(New(sess, Config{}))
			defer ts.Close()

			const n = 3
			var req wire.RunRequest
			insts := make([]map[string]*tensor.Dense, n)
			for i := range insts {
				var data map[string]*tensor.Dense
				req, data = inputsFor(t, c, int64(500*i+11))
				insts[i] = data
			}
			client := &wire.Client{BaseURL: ts.URL}
			outcome, err := client.RunBatch(context.Background(), req, insts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if outcome.Errs[i] != nil {
					t.Fatalf("instance %d failed: %v", i, outcome.Errs[i])
				}
				want := referenceRun(t, c, insts[i])
				assertBitsEqual(t, fmt.Sprintf("instance %d vs in-process Bind.Run", i), outcome.Outputs[i], want)
			}
			if outcome.Stats.PlanKey == "" || outcome.Stats.TimeS <= 0 {
				t.Fatalf("implausible stats: %+v", outcome.Stats)
			}
			if st := sess.CacheStats(); st.Misses != 1 {
				t.Fatalf("stats = %+v, want exactly one compile for the whole batch", st)
			}
		})
	}
}

// TestRunBatchMetricsMatchSingle: the simulated accounting of a batched run
// executes once, so its metric headers are bit-identical to the same
// workload run single-instance.
func TestRunBatchMetricsMatchSingle(t *testing.T) {
	c := runCases(t)[0]
	ts := httptest.NewServer(New(distal.NewSession(c.machine), Config{}))
	defer ts.Close()

	client := &wire.Client{BaseURL: ts.URL}
	req, data := inputsFor(t, c, 77)
	_, single, err := client.Run(context.Background(), req, data)
	if err != nil {
		t.Fatal(err)
	}
	insts := make([]map[string]*tensor.Dense, 8)
	for i := range insts {
		_, insts[i] = inputsFor(t, c, int64(900*i+13))
	}
	outcome, err := client.RunBatch(context.Background(), req, insts)
	if err != nil {
		t.Fatal(err)
	}
	b := outcome.Stats
	if b.TimeS != single.TimeS || b.Copies != single.Copies ||
		b.IntraBytes != single.IntraBytes || b.InterBytes != single.InterBytes ||
		b.PeakMemBytes != single.PeakMemBytes {
		t.Fatalf("batched metrics %+v differ from single-instance %+v", b, *single)
	}
}

// TestRunBatchServerSideFills: per-instance fills — "rand:<seed>" draws
// instance i from seed+i on the server, and the client reconstructs every
// instance bit-identically without shipping a byte.
func TestRunBatchServerSideFills(t *testing.T) {
	c := runCases(t)[0] // summa
	ts := httptest.NewServer(New(distal.NewSession(c.machine), Config{}))
	defer ts.Close()

	const n = 3
	req := c.req
	req.Inputs = map[string]string{"B": "rand:5", "C": "rand:9"}
	nn := n
	req.Batch = &nn
	client := &wire.Client{BaseURL: ts.URL}
	outcome, err := client.RunBatch(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := ir.Parse(req.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		B := tensor.New("B", req.Shapes["B"]...)
		B.FillRandom(5 + int64(i))
		C := tensor.New("C", req.Shapes["C"]...)
		C.FillRandom(9 + int64(i))
		want, err := ir.Evaluate(stmt, map[string]*tensor.Dense{"B": B, "C": C})
		if err != nil {
			t.Fatal(err)
		}
		assertBitsEqual(t, fmt.Sprintf("instance %d vs local per-instance fill", i), outcome.Outputs[i], want)
	}
}

// TestRunBatchPartialFailure: an instance whose frame decodes but has the
// wrong shape fails alone — the response is still 200, the batch headers
// name the casualty, and the surviving instances' outputs stay correct and
// in order.
func TestRunBatchPartialFailure(t *testing.T) {
	c := runCases(t)[0]
	ts := httptest.NewServer(New(distal.NewSession(c.machine), Config{}))
	defer ts.Close()

	const n = 3
	req, _ := inputsFor(t, c, 0)
	nn := n
	req.Batch = &nn
	insts := make([]map[string]*tensor.Dense, n)
	for i := range insts {
		_, insts[i] = inputsFor(t, c, int64(300*i+1))
	}
	// Instance 1's B keeps the declared element count (so the frame decodes
	// and the stream stays in sync) but lies about the shape.
	bad := tensor.New("B", 32, 128)
	bad.FillRandom(99)
	insts[1]["B"] = bad

	client := &wire.Client{BaseURL: ts.URL}
	outcome, err := client.RunBatch(context.Background(), req, insts)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Errs[0] != nil || outcome.Errs[2] != nil {
		t.Fatalf("surviving instances reported errors: %v, %v", outcome.Errs[0], outcome.Errs[2])
	}
	ie, ok := outcome.Errs[1].(*wire.InstanceError)
	if !ok {
		t.Fatalf("instance 1 error = %v (%T), want *wire.InstanceError", outcome.Errs[1], outcome.Errs[1])
	}
	if ie.Kind != "input" || ie.Index != 1 || !strings.Contains(ie.Message, "shape") {
		t.Fatalf("instance 1 error = %+v", ie)
	}
	if outcome.Outputs[1] != nil {
		t.Fatal("failed instance produced an output")
	}
	for _, i := range []int{0, 2} {
		want := referenceRun(t, c, insts[i])
		assertBitsEqual(t, fmt.Sprintf("surviving instance %d", i), outcome.Outputs[i], want)
	}
}

// TestRunBatchErrorMapping: every client-caused batch failure maps to 4xx —
// bad batch counts and framing disagreements 422, desynchronized frames 400,
// never 500.
func TestRunBatchErrorMapping(t *testing.T) {
	c := runCases(t)[0]

	mk := func(name string, dims ...int) *tensor.Dense {
		d := tensor.New(name, dims...)
		d.FillRandom(7)
		return d
	}
	wireReq := func(batch int) wire.RunRequest {
		req := c.req
		req.Inputs = map[string]string{"B": wire.FillWire, "C": wire.FillWire}
		req.Batch = &batch
		return req
	}
	fillReq := func(batch int) wire.RunRequest {
		req := c.req
		req.Inputs = map[string]string{"B": "rand:1", "C": "ones"}
		req.Batch = &batch
		return req
	}
	// Two instances' worth of correct frames, instance-major.
	goodFrames := func(n int) []*tensor.Dense {
		var out []*tensor.Dense
		for i := 0; i < n; i++ {
			out = append(out, mk("B", 64, 64), mk("C", 64, 64))
		}
		return out
	}

	cases := []struct {
		name       string
		cfg        Config
		body       func(t *testing.T) []byte
		json       bool
		wantStatus int
		wantKind   string
	}{
		{
			name:       "batch zero",
			body:       func(t *testing.T) []byte { b, _ := json.Marshal(fillReq(0)); return b },
			json:       true,
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   "input",
		},
		{
			name:       "batch negative",
			body:       func(t *testing.T) []byte { b, _ := json.Marshal(fillReq(-2)); return b },
			json:       true,
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   "input",
		},
		{
			name:       "batch over the default cap",
			body:       func(t *testing.T) []byte { b, _ := json.Marshal(fillReq(65)); return b },
			json:       true,
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   "input",
		},
		{
			name:       "batch over a configured cap",
			cfg:        Config{MaxRunBatch: 2},
			body:       func(t *testing.T) []byte { b, _ := json.Marshal(fillReq(3)); return b },
			json:       true,
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   "input",
		},
		{
			name: "partial frame set",
			// The header declares 3 instances; only 2 instances' frames
			// follow, so instance 2's first frame truncates.
			body: func(t *testing.T) []byte {
				return batchFramed(t, wireReq(3), goodFrames(2)...)
			},
			wantStatus: http.StatusBadRequest,
			wantKind:   "parse",
		},
		{
			name: "batch header contradicting the frames",
			// The header declares 2 instances; 3 instances' frames follow,
			// leaving trailing data after the declared set.
			body: func(t *testing.T) []byte {
				return batchFramed(t, wireReq(2), goodFrames(3)...)
			},
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   "input",
		},
		{
			name: "malformed frame mid-batch",
			body: func(t *testing.T) []byte {
				body := batchFramed(t, wireReq(2), goodFrames(1)...)
				return append(body, []byte("this is not a frame header....")...)
			},
			wantStatus: http.StatusBadRequest,
			wantKind:   "parse",
		},
		{
			name: "every instance rejected",
			// Both instances' B frames lie about the shape (same element
			// count, so they decode): with no survivor the whole request
			// fails like the single-instance path.
			body: func(t *testing.T) []byte {
				return batchFramed(t, wireReq(2),
					mk("B", 32, 128), mk("C", 64, 64),
					mk("B", 128, 32), mk("C", 64, 64))
			},
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   "input",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(New(distal.NewSession(c.machine), tc.cfg))
			defer ts.Close()
			ct := wire.ContentTypeRun
			if tc.json {
				ct = "application/json"
			}
			resp, err := http.Post(ts.URL+"/v1/run", ct, bytes.NewReader(tc.body(t)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb errorResponse
			_ = json.NewDecoder(resp.Body).Decode(&eb)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d (%s: %s), want %d", resp.StatusCode, eb.Error.Kind, eb.Error.Message, tc.wantStatus)
			}
			if eb.Error.Kind != tc.wantKind {
				t.Fatalf("kind = %q (%s), want %q", eb.Error.Kind, eb.Error.Message, tc.wantKind)
			}
		})
	}
}

// TestRunBatchHeaders: the raw response of a partially failed batch carries
// the declared count, one status token per instance, and the per-instance
// messages — and the body holds exactly the surviving frames.
func TestRunBatchHeaders(t *testing.T) {
	c := runCases(t)[0]
	ts := httptest.NewServer(New(distal.NewSession(c.machine), Config{}))
	defer ts.Close()

	req := c.req
	req.Inputs = map[string]string{"B": wire.FillWire, "C": wire.FillWire}
	n := 2
	req.Batch = &n
	good := func(name string, seed int64) *tensor.Dense {
		d := tensor.New(name, 64, 64)
		d.FillRandom(seed)
		return d
	}
	bad := tensor.New("B", 32, 128) // decodes, wrong shape
	bad.FillRandom(3)
	body := batchFramed(t, req, good("B", 1), good("C", 2), bad, good("C", 4))
	resp, err := http.Post(ts.URL+"/v1/run", wire.ContentTypeRun, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(wire.HeaderBatch); got != "2" {
		t.Fatalf("%s = %q, want 2", wire.HeaderBatch, got)
	}
	if got := resp.Header.Get(wire.HeaderBatchStatus); got != "ok,input" {
		t.Fatalf("%s = %q, want \"ok,input\"", wire.HeaderBatchStatus, got)
	}
	var msgs []string
	if err := json.Unmarshal([]byte(resp.Header.Get(wire.HeaderBatchErrors)), &msgs); err != nil {
		t.Fatalf("%s did not parse: %v", wire.HeaderBatchErrors, err)
	}
	if len(msgs) != 2 || msgs[0] != "" || !strings.Contains(msgs[1], "shape") {
		t.Fatalf("%s = %q", wire.HeaderBatchErrors, msgs)
	}
	// Exactly one surviving frame, then EOF.
	if _, err := wire.DecodeLimit(resp.Body, 64*64); err != nil {
		t.Fatal(err)
	}
	var probe [1]byte
	if m, _ := resp.Body.Read(probe[:]); m != 0 {
		t.Fatal("trailing bytes after the surviving instance's frame")
	}
}
