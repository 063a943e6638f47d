package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"distal"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *distal.Session) {
	t.Helper()
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, cfg))
	t.Cleanup(ts.Close)
	return ts, sess
}

func summaRequest(n int) ExecuteRequest {
	return ExecuteRequest{
		Stmt: "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{
			"A": {n, n}, "B": {n, n}, "C": {n, n},
		},
		Formats: map[string]string{"A": "xy->xy", "B": "xy->xy", "C": "xy->xy"},
		Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) reorder(io,jo,ii,ji) " +
			"distribute(io,jo) split(k,ko,ki,16) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(jo,A) communicate(ko,B,C)",
	}
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestExecuteEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/execute", summaRequest(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out ExecuteResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("invalid metrics JSON: %v (%s)", err, body)
	}
	if out.TimeS <= 0 || out.Flops <= 0 || out.PlanKey == "" || out.Launches == 0 {
		t.Fatalf("implausible metrics: %+v", out)
	}
	if out.Cached {
		t.Fatal("first request reported cached")
	}

	// Same workload again: plan cache serves it.
	resp, body = post(t, ts.URL+"/v1/execute", summaRequest(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var again ExecuteResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("second identical request did not hit the plan cache")
	}
	if again.TimeS != out.TimeS || again.Copies != out.Copies {
		t.Fatalf("cached plan diverged: %+v vs %+v", again, out)
	}
}

func TestExecuteErrorMapping(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    ExecuteRequest
		status int
		kind   string
	}{
		{"parse", ExecuteRequest{Stmt: "A(i,j) ="}, http.StatusBadRequest, "parse"},
		{"missing shape", ExecuteRequest{Stmt: "A(i,j) = B(i,k) * C(k,j)",
			Shapes: map[string][]int{"A": {8, 8}}}, http.StatusBadRequest, "parse"},
		{"negative extents", func() ExecuteRequest {
			q := summaRequest(64)
			q.Shapes = map[string][]int{"A": {-3, -3}, "B": {-3, -3}, "C": {-3, -3}}
			return q
		}(), http.StatusBadRequest, "parse"},
		{"schedule", func() ExecuteRequest {
			q := summaRequest(64)
			q.Schedule = "divide(zz,a,b,2)"
			return q
		}(), http.StatusUnprocessableEntity, "schedule"},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/v1/execute", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: invalid error JSON: %v", c.name, err)
			continue
		}
		if e.Error.Kind != c.kind {
			t.Errorf("%s: kind = %q, want %q", c.name, e.Error.Kind, c.kind)
		}
	}
	// Malformed JSON body is a parse error too.
	resp, err := http.Post(ts.URL+"/v1/execute", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400", resp.StatusCode)
	}
	// GET on a POST endpoint.
	getResp, err := http.Get(ts.URL + "/v1/execute")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/execute: status = %d, want 405", getResp.StatusCode)
	}
}

func TestExecuteDeadline(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	// A deadline far shorter than the workload: the pipeline must abort
	// with 504/canceled rather than run to completion.
	q := ExecuteRequest{
		Stmt: "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{
			"A": {2048, 2048}, "B": {2048, 2048}, "C": {2048, 2048},
		},
		Schedule: "divide(i,io,ii,32) divide(j,jo,ji,32) reorder(io,jo,ii,ji) " +
			"distribute(io,jo) split(k,ko,ki,64) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(jo,A) communicate(ko,B,C)",
		TimeoutMS: 1,
	}
	resp, body := post(t, ts.URL+"/v1/execute", q)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Kind != "canceled" {
		t.Fatalf("kind = %q, want canceled", e.Error.Kind)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	batch := BatchRequest{Requests: []ExecuteRequest{
		summaRequest(64),
		{Stmt: "A(i,j) ="}, // fails inline, does not sink the batch
		summaRequest(64),
	}}
	resp, body := post(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(out.Responses))
	}
	if out.Responses[0].Result == nil || out.Responses[2].Result == nil {
		t.Fatalf("valid entries failed: %s", body)
	}
	if out.Responses[1].Error == nil || out.Responses[1].Error.Kind != "parse" {
		t.Fatalf("invalid entry did not report a parse error: %s", body)
	}
	if out.Responses[0].Result.TimeS != out.Responses[2].Result.TimeS {
		t.Fatal("identical batch entries diverged")
	}

	// Empty and oversized batches are rejected whole.
	resp, _ = post(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentIdenticalRequests drives the acceptance criterion through
// the wire: N concurrent identical requests sustain exactly one compile
// (singleflight + plan cache), visible in /v1/stats.
func TestConcurrentIdenticalRequests(t *testing.T) {
	ts, sess := newTestServer(t, Config{Workers: 8})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	var mu sync.Mutex
	times := map[float64]bool{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(summaRequest(64))
			resp, err := http.Post(ts.URL+"/v1/execute", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out ExecuteResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			mu.Lock()
			times[out.TimeS] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(times) != 1 {
		t.Fatalf("concurrent identical requests produced %d distinct results", len(times))
	}
	if st := sess.CacheStats(); st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want exactly one compile across %d concurrent requests", st, n)
	}

	// The stats endpoint reports the same counters over the wire.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Misses != 1 || stats.Requests != n {
		t.Fatalf("stats = %+v, want 1 miss and %d requests", stats, n)
	}
}

// TestWorkerPoolBound: a single-worker server still completes every request
// of a burst (they serialize through the pool).
func TestWorkerPoolBound(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Timeout: time.Minute})
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(summaRequest(16 + 16*(i%3)))
			resp, err := http.Post(ts.URL+"/v1/execute", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTuneEndpoint checks /v1/tune end to end: the search runs, the winner
// matches or beats the AutoSchedule baseline, and — crucially for the
// determinism contract — the endpoint returns the same winner as a direct
// Session.Tune with the same seed and budget.
func TestTuneEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	req := TuneRequest{
		Stmt: "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{
			"A": {256, 256}, "B": {256, 256}, "C": {256, 256},
		},
		Budget: 32,
		Seed:   5,
	}
	resp, body := post(t, ts.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out TuneResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response: %v\n%s", err, body)
	}
	if out.Winner.Schedule == "" || out.Winner.MakespanSec <= 0 || out.Winner.PlanKey == "" {
		t.Fatalf("incomplete winner: %+v", out.Winner)
	}
	if out.Baseline == nil {
		t.Fatal("no AutoSchedule baseline in response")
	}
	if out.Winner.MakespanSec > out.Baseline.MakespanSec {
		t.Fatalf("winner %.9fs worse than baseline %.9fs", out.Winner.MakespanSec, out.Baseline.MakespanSec)
	}
	if out.Evaluated == 0 || out.Evaluated > 32 {
		t.Fatalf("evaluated %d, want within (0, 32]", out.Evaluated)
	}

	// The same search done directly must elect the same winner.
	direct := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	want, err := direct.Tune(context.Background(), distal.Request{
		Stmt: req.Stmt, Shapes: req.Shapes,
	}, distal.TuneOptions{Budget: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner.Schedule != want.Winner.Schedule {
		t.Fatalf("wire winner differs from direct winner:\n  wire:   %s\n  direct: %s",
			out.Winner.Schedule, want.Winner.Schedule)
	}
	if out.Winner.MakespanSec != want.Winner.MakespanSec {
		t.Fatalf("wire makespan %.9fs != direct %.9fs", out.Winner.MakespanSec, want.Winner.MakespanSec)
	}

	// Replaying the winner through /v1/execute hits the plan cache.
	exec := summaRequest(256)
	exec.Schedule = out.Winner.Schedule
	exec.Formats = nil
	resp, body = post(t, ts.URL+"/v1/execute", exec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("winner replay status %d: %s", resp.StatusCode, body)
	}
	var er ExecuteResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Cached {
		t.Fatal("winner replay was not served from the plan cache")
	}
	if er.PlanKey != out.Winner.PlanKey {
		t.Fatalf("winner replay key %q != reported %q", er.PlanKey, out.Winner.PlanKey)
	}
}

// TestTuneEndpointErrors: the tune endpoint reuses the error taxonomy
// mapping (parse -> 400) and caps the budget server-side.
func TestTuneEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxTuneBudget: 4})
	resp, body := post(t, ts.URL+"/v1/tune", TuneRequest{Stmt: "nope("})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad stmt: status %d, want 400: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Kind != "parse" {
		t.Fatalf("bad stmt: kind %q, want parse (%v)", e.Error.Kind, err)
	}
	// A statement list is not a tuning request.
	resp, body = post(t, ts.URL+"/v1/tune", map[string]any{
		"stmts":  []map[string]string{{"stmt": "D(i,j) = A(i,k) * B(k,j)"}},
		"shapes": map[string][]int{"A": {8, 8}, "B": {8, 8}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stmts body: status %d, want 400: %s", resp.StatusCode, body)
	}
	req := TuneRequest{
		Stmt:   "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{"A": {64, 64}, "B": {64, 64}, "C": {64, 64}},
		Budget: 100000,
	}
	resp, body = post(t, ts.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out TuneResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Evaluated > 4 {
		t.Fatalf("evaluated %d, server cap was 4", out.Evaluated)
	}
	// An omitted budget must obey the cap too: the tuner default is 64,
	// but the operator said 4.
	req.Budget = 0
	req.Seed = 1
	resp, body = post(t, ts.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	out = TuneResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Evaluated > 4 {
		t.Fatalf("default-budget request evaluated %d, server cap was 4", out.Evaluated)
	}
}
