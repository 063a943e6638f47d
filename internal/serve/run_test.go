package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"distal"
	"distal/internal/algorithms"
	"distal/internal/ir"
	"distal/internal/machine"
	"distal/internal/request"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// runCase is one of the five example workloads at test size: the request
// internal/algorithms writes for the example's algorithm, shrunk so real
// execution stays fast.
type runCase struct {
	name    string
	machine *distal.Machine
	req     wire.RunRequest
}

func runCases(t testing.TB) []runCase {
	var cases []runCase
	add := func(name string) func(*machine.Machine, request.Request, error) {
		return func(m *machine.Machine, r request.Request, err error) {
			if err != nil {
				t.Fatal(err)
			}
			req := wire.RunRequest{Stmt: r.Stmt, Shapes: r.Shapes, Formats: r.Formats, Schedule: r.Schedule}
			cases = append(cases, runCase{name, &distal.Machine{M: m}, req})
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

// inputsFor builds deterministic random data for every RHS tensor of c and
// marks it "wire"; the output stays at the default zero fill.
func inputsFor(t *testing.T, c runCase, seed int64) (wire.RunRequest, map[string]*tensor.Dense) {
	t.Helper()
	stmt, err := ir.Parse(c.req.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	req := c.req
	req.Inputs = map[string]string{}
	data := map[string]*tensor.Dense{}
	for i, name := range stmt.TensorNames() {
		if name == stmt.LHS.Tensor {
			continue
		}
		d := tensor.New(name, req.Shapes[name]...)
		d.FillRandom(seed + int64(i))
		req.Inputs[name] = wire.FillWire
		data[name] = d
	}
	return req, data
}

// referenceRun executes the same request in-process on an identical machine
// through Plan.Bind(...).Run and returns the output tensor.
func referenceRun(t *testing.T, c runCase, data map[string]*tensor.Dense) *tensor.Dense {
	t.Helper()
	sess := distal.NewSession(c.machine)
	plan, err := sess.Compile(context.Background(), distal.Request{
		Stmt: c.req.Stmt, Shapes: c.req.Shapes, Formats: c.req.Formats, Schedule: c.req.Schedule,
	})
	if err != nil {
		t.Fatal(err)
	}
	var binds []*distal.Tensor
	for _, name := range plan.Inputs() {
		shape := c.req.Shapes[name]
		d := tensor.New(name, shape...)
		if in, ok := data[name]; ok && name != plan.Output() {
			copy(d.Data(), in.Data())
		}
		binds = append(binds, &distal.Tensor{Name: name, Shape: shape, Data: d})
	}
	b := plan.Bind(binds...)
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return b.Output().Data
}

func assertBitsEqual(t *testing.T, label string, got, want *tensor.Dense) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: %d values, want %d", label, len(gd), len(wd))
	}
	for i := range gd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: value %d is %v, want %v (not bit-identical)", label, i, gd[i], wd[i])
		}
	}
}

// TestRunEndpointExamples: the tentpole acceptance test. For each of the
// five example workloads, the streamed /v1/run result must be bit-identical
// to an in-process Plan.Bind(...).Run of the same data and to the
// ir.Evaluate reference semantics.
func TestRunEndpointExamples(t *testing.T) {
	for _, c := range runCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sess := distal.NewSession(c.machine)
			ts := httptest.NewServer(New(sess, Config{}))
			defer ts.Close()

			req, data := inputsFor(t, c, 100)
			client := &wire.Client{BaseURL: ts.URL}
			out, stats, err := client.Run(context.Background(), req, data)
			if err != nil {
				t.Fatal(err)
			}
			if stats.PlanKey == "" || stats.TimeS <= 0 {
				t.Fatalf("implausible stats: %+v", stats)
			}
			if stats.Cached {
				t.Fatal("first run reported cached")
			}

			inProc := referenceRun(t, c, data)
			assertBitsEqual(t, "wire vs in-process Bind.Run", out, inProc)

			stmt, err := ir.Parse(c.req.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ir.Evaluate(stmt, data)
			if err != nil {
				t.Fatal(err)
			}
			// The scheduled kernels accumulate in a different loop order than
			// the reference interpreter, so this comparison is numeric, not
			// bitwise (the bitwise guarantee is against Bind.Run above).
			if !out.EqualWithin(want, 1e-9) {
				t.Fatalf("wire vs ir.Evaluate: max |diff| = %g", out.MaxAbsDiff(want))
			}

			// The same workload again: served from the plan cache.
			_, stats2, err := client.Run(context.Background(), req, data)
			if err != nil {
				t.Fatal(err)
			}
			if !stats2.Cached {
				t.Fatal("repeat run did not hit the plan cache")
			}
			if st := sess.CacheStats(); st.Misses != 1 {
				t.Fatalf("stats = %+v, want exactly one compile", st)
			}
		})
	}
}

// TestRunServerSideFills: a client can exercise a plan end to end without
// shipping any tensor bytes — fills materialize server-side and match the
// client's deterministic reconstruction.
func TestRunServerSideFills(t *testing.T) {
	c := runCases(t)[0] // summa
	sess := distal.NewSession(c.machine)
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	req := c.req
	req.Inputs = map[string]string{"B": "rand:1", "C": "ones"}
	client := &wire.Client{BaseURL: ts.URL}
	out, stats, err := client.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Output != "A" {
		t.Fatalf("output header = %q", stats.Output)
	}

	// Reconstruct the fills locally and evaluate the reference.
	B := tensor.New("B", req.Shapes["B"]...)
	B.FillRandom(1)
	C := tensor.New("C", req.Shapes["C"]...)
	C.Fill(1)
	stmt, err := ir.Parse(req.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Evaluate(stmt, map[string]*tensor.Dense{"B": B, "C": C})
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "filled run vs local reference", out, want)
}

// TestRunConcurrentSharedPlan: concurrent wire-level runs of the same
// workload on different data share exactly one compiled plan and never mix
// up their outputs.
func TestRunConcurrentSharedPlan(t *testing.T) {
	c := runCases(t)[0]
	sess := distal.NewSession(c.machine)
	ts := httptest.NewServer(New(sess, Config{Workers: 4}))
	defer ts.Close()

	const runs = 8
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for g := 0; g < runs; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			req, data := inputsFor(t, c, seed)
			client := &wire.Client{BaseURL: ts.URL}
			out, _, err := client.Run(context.Background(), req, data)
			if err != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, err)
				return
			}
			stmt, err := ir.Parse(c.req.Stmt)
			if err != nil {
				errs <- err
				return
			}
			want, err := ir.Evaluate(stmt, data)
			if err != nil {
				errs <- err
				return
			}
			for i := range out.Data() {
				if math.Float64bits(out.Data()[i]) != math.Float64bits(want.Data()[i]) {
					errs <- fmt.Errorf("seed %d: value %d differs", seed, i)
					return
				}
			}
		}(int64(g) * 31)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sess.CacheStats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want one shared compile across %d wire runs", st, runs)
	}
}

// TestRunErrorMapping: every client-caused failure maps to 4xx through the
// taxonomy — malformed wire bytes 400, shape mismatches and framing
// disagreements 422, mismatched Content-Type 415 — never 500.
func TestRunErrorMapping(t *testing.T) {
	c := runCases(t)[0]
	sess := distal.NewSession(c.machine)
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	post := func(contentType string, body []byte) (*http.Response, ErrorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/run", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp, eb.Error
	}
	framed := func(req wire.RunRequest, frames ...*tensor.Dense) []byte {
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
	wireReq := func(names ...string) wire.RunRequest {
		req := c.req
		req.Inputs = map[string]string{}
		for _, n := range names {
			req.Inputs[n] = wire.FillWire
		}
		return req
	}
	mk := func(name string, dims ...int) *tensor.Dense {
		d := tensor.New(name, dims...)
		d.FillRandom(7)
		return d
	}

	t.Run("mismatched content type", func(t *testing.T) {
		resp, eb := post("text/plain", []byte("hello"))
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("status = %d, want 415", resp.StatusCode)
		}
		if eb.Kind != "parse" {
			t.Fatalf("kind = %q", eb.Kind)
		}
	})
	t.Run("malformed wire frame", func(t *testing.T) {
		garbled := framed(wireReq("B", "C"), mk("B", 64, 64))
		garbled = append(garbled, []byte("this is not a frame header....")...)
		resp, eb := post(wire.ContentTypeRun, garbled)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if eb.Kind != "parse" {
			t.Fatalf("kind = %q", eb.Kind)
		}
	})
	t.Run("frame shape mismatch", func(t *testing.T) {
		resp, eb := post(wire.ContentTypeRun,
			framed(wireReq("B", "C"), mk("B", 32, 128), mk("C", 64, 64)))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
		if eb.Kind != "input" {
			t.Fatalf("kind = %q", eb.Kind)
		}
	})
	t.Run("truncated frame", func(t *testing.T) {
		body := framed(wireReq("B", "C"), mk("B", 64, 64), mk("C", 64, 64))
		resp, eb := post(wire.ContentTypeRun, body[:len(body)-100])
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if eb.Kind != "parse" {
			t.Fatalf("kind = %q", eb.Kind)
		}
	})
	t.Run("trailing data", func(t *testing.T) {
		body := framed(wireReq("B", "C"), mk("B", 64, 64), mk("C", 64, 64), mk("X", 2, 2))
		resp, eb := post(wire.ContentTypeRun, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
		if eb.Kind != "input" {
			t.Fatalf("kind = %q", eb.Kind)
		}
	})
	t.Run("bad fill directive", func(t *testing.T) {
		req := c.req
		req.Inputs = map[string]string{"B": "sevens"}
		body, _ := json.Marshal(req)
		resp, eb := post("application/json", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if eb.Kind != "parse" {
			t.Fatalf("kind = %q", eb.Kind)
		}
	})
	t.Run("wire input without framing", func(t *testing.T) {
		req := c.req
		req.Inputs = map[string]string{"B": wire.FillWire}
		body, _ := json.Marshal(req)
		resp, _ := post("application/json", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("inputs naming a stranger", func(t *testing.T) {
		req := c.req
		req.Inputs = map[string]string{"Z": "zero"}
		body, _ := json.Marshal(req)
		resp, _ := post("application/json", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("body over the run limit", func(t *testing.T) {
		small := httptest.NewServer(New(distal.NewSession(c.machine), Config{MaxRunBody: 1 << 10}))
		defer small.Close()
		body := framed(wireReq("B", "C"), mk("B", 64, 64), mk("C", 64, 64))
		resp, err := http.Post(small.URL+"/v1/run", wire.ContentTypeRun, bytes.NewReader(body))
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode/100 != 4 {
				t.Fatalf("status = %d, want 4xx", resp.StatusCode)
			}
		}
		// err != nil is also acceptable: MaxBytesReader may kill the
		// connection mid-upload before a response can be read.
	})
	t.Run("GET is rejected", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/run")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestJSONEndpointsRejectMismatchedContentType: the pre-existing JSON
// endpoints also refuse bodies that do not declare JSON.
func TestJSONEndpointsRejectMismatchedContentType(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	for _, path := range []string{"/v1/execute", "/v1/batch", "/v1/tune"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: status = %d, want 415", path, resp.StatusCode)
		}
	}
	// An absent Content-Type keeps working (hand-rolled clients).
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", strings.NewReader(`{"stmt":"bad`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Del("Content-Type")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (parse error, not 415)", resp.StatusCode)
	}
}

// TestRunStreamsChunked: the response must arrive as chunked transfer (no
// Content-Length), the shape a streaming encoder produces.
func TestRunStreamsChunked(t *testing.T) {
	c := runCases(t)[0]
	ts := httptest.NewServer(New(distal.NewSession(c.machine), Config{}))
	defer ts.Close()
	req := c.req
	req.Inputs = map[string]string{"B": "rand:3", "C": "rand:4"}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.ContentLength >= 0 {
		t.Fatalf("response has Content-Length %d; expected chunked streaming", resp.ContentLength)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeTensor {
		t.Fatalf("Content-Type = %q", ct)
	}
	out, err := wire.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Shape()[0], 64; got != want {
		t.Fatalf("output dim = %d, want %d", got, want)
	}
}

// TestClientReusesConnection: wire.Client reads every response to its end,
// so sequential runs, single and batched, share one keep-alive connection.
func TestClientReusesConnection(t *testing.T) {
	c := runCases(t)[0]
	ts := httptest.NewServer(New(distal.NewSession(c.machine), Config{}))
	defer ts.Close()
	var (
		dials  atomic.Int64
		dialer net.Dialer
	)
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}}
	defer transport.CloseIdleConnections()
	client := &wire.Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: transport}}

	ctx := context.Background()
	req, data := inputsFor(t, c, 1)
	batched := req
	two := 2
	batched.Batch = &two
	for i := 0; i < 10; i++ {
		if _, _, err := client.Run(ctx, req, data); err != nil {
			t.Fatal(err)
		}
		outcome, err := client.RunBatch(ctx, batched, []map[string]*tensor.Dense{data, data})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range outcome.Errs {
			if e != nil {
				t.Fatal(e)
			}
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("20 sequential runs dialed %d connections, want 1", n)
	}
}
