package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distal"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// traceExport mirrors the Chrome trace_event JSON shape GET /v1/trace/{id}
// serves.
type traceExport struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]string `json:"otherData"`
}

func fetchTraceExport(t *testing.T, baseURL, id string) traceExport {
	t.Helper()
	// The server publishes a request's trace when its handler returns, which
	// can be after the client has decoded the last response frame: give the
	// ring a moment before calling a 404 a failure.
	var resp *http.Response
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if resp, err = http.Get(baseURL + "/v1/trace/" + id); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound || time.Now().After(deadline) {
			break
		}
		resp.Body.Close()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/trace/%s = %d: %s", id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q, want application/json", ct)
	}
	var tr traceExport
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	return tr
}

// TestTraceExportChain: a multi-statement /v1/run leaves a complete span
// tree in the trace ring — queue wait, frame decode, the program compile
// (with cache provenance and the program's plan key), per-stage execution,
// and response streaming — exported as Chrome trace_event JSON keyed by the
// response's request id. The cold run compiles every stage; the warm run
// resolves the whole program from the request memo in one span, still
// counting a plan-cache hit per stage.
func TestTraceExportChain(t *testing.T) {
	const n = 32
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	req := chainRunRequest(n)
	a := tensor.New("A", n, n)
	a.FillRandom(20)
	client := &wire.Client{BaseURL: ts.URL}

	run := func(wantCache string, stageCompiles int) traceExport {
		t.Helper()
		_, stats, err := client.Run(context.Background(), req, map[string]*tensor.Dense{"A": a})
		if err != nil {
			t.Fatal(err)
		}
		if stats.RequestID == "" {
			t.Fatal("response carried no Distal-Request-Id")
		}
		if len(stats.Stages) != 2 {
			t.Fatalf("Distal-Stages carried %d rows, want 2: %+v", len(stats.Stages), stats.Stages)
		}
		if stats.Stages[0].Output != "D" || stats.Stages[1].Output != "E" {
			t.Fatalf("stage outputs = %s, %s, want D, E", stats.Stages[0].Output, stats.Stages[1].Output)
		}
		for _, st := range stats.Stages {
			if st.Cached != (wantCache == "hit") {
				t.Fatalf("stage %s cached=%v on a %s run", st.Output, st.Cached, wantCache)
			}
		}
		tr := fetchTraceExport(t, ts.URL, stats.RequestID)
		if tr.DisplayTimeUnit != "ms" {
			t.Fatalf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
		}
		if tr.OtherData["request_id"] != stats.RequestID {
			t.Fatalf("otherData.request_id = %q, want %q", tr.OtherData["request_id"], stats.RequestID)
		}
		count := map[string]int{}
		var cacheAttrs []string
		for _, e := range tr.TraceEvents {
			if e.Ph != "X" || e.Cat != "distal" {
				t.Fatalf("event %q: ph=%q cat=%q, want complete distal events", e.Name, e.Ph, e.Cat)
			}
			count[e.Name]++
			switch e.Name {
			case "compile", "compile-stage":
				cacheAttrs = append(cacheAttrs, e.Args["cache"])
			}
			if e.Name == "compile" && (e.Args["plan_key"] != stats.PlanKey || e.Args["stages"] != "2") {
				t.Fatalf("compile plan_key = %q stages = %q, want the program key %q and 2", e.Args["plan_key"], e.Args["stages"], stats.PlanKey)
			}
			// Both stages' leaves (ii, ji, ki) block all three variables.
			if e.Name == "compiler-run" && e.Args["block_vars"] != "3" {
				t.Fatalf("compiler-run block_vars = %q, want 3", e.Args["block_vars"])
			}
		}
		for name, want := range map[string]int{
			"/v1/run": 1, "queue-wait": 1, "decode-frames": 1, "execute": 1,
			"stream-response": 1, "compile": 1,
			"compile-stage": stageCompiles, "compiler-run": stageCompiles, "run-stage": 2,
		} {
			if count[name] != want {
				t.Fatalf("trace has %d %q spans, want %d (counts: %v)", count[name], name, want, count)
			}
		}
		if count["launch"] < 2 {
			t.Fatalf("trace has %d launch spans, want at least one per stage (counts: %v)", count["launch"], count)
		}
		for _, c := range cacheAttrs {
			if c != wantCache {
				t.Fatalf("compile span cache attr = %q, want %q", c, wantCache)
			}
		}
		return tr
	}

	run("miss", 2)
	if st := fetchStats(t, ts.URL); st.Cache.Hits != 0 || st.Cache.Misses != 2 {
		t.Fatalf("after the cold run: cache %+v, want 0 hits / 2 misses", st.Cache)
	}
	run("hit", 0) // the repeat resolves the whole program from the request memo
	if st := fetchStats(t, ts.URL); st.Cache.Hits != 2 || st.Cache.Misses != 2 {
		t.Fatalf("after the warm run: cache %+v, want a hit per stage (2) and still 2 misses", st.Cache)
	}

	// An unknown id is a JSON 404, not an empty 200.
	resp, err := http.Get(ts.URL + "/v1/trace/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status = %d, want 404", resp.StatusCode)
	}
}

// scrapeMetrics parses the /metrics exposition into series name{labels} ->
// value, failing on anything the Prometheus text format forbids.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: bad value: %v", line, err)
		}
		out[series] = v
	}
	return out
}

func fetchStats(t *testing.T, baseURL string) StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMetricsStatsAgree hammers /metrics and /v1/stats while batched /v1/run
// requests are in flight (the -race interleaving test), then checks the two
// surfaces report identical counters once the dust settles: they read the
// same registry, so any disagreement is a bug, not skew.
func TestMetricsStatsAgree(t *testing.T) {
	const n, instances, runs = 16, 3, 4
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, Config{}))
	defer ts.Close()

	req := chainRunRequest(n)
	req.Inputs = map[string]string{"A": "rand:20", "B": "rand:21", "C": "rand:22"}
	b := instances
	req.Batch = &b

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := scrapeMetrics(t, ts.URL)
				st := fetchStats(t, ts.URL)
				// Mid-flight values move between the two fetches; shape
				// invariants must hold in any interleaving.
				if st.Inflight < 0 || m[`distal_workers`] != float64(st.Workers) {
					t.Errorf("implausible mid-flight stats: %+v vs %v", st, m)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	client := &wire.Client{BaseURL: ts.URL}
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.RunBatch(context.Background(), req, nil); err != nil {
				t.Errorf("batched run: %v", err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if t.Failed() {
		return
	}

	m := scrapeMetrics(t, ts.URL)
	st := fetchStats(t, ts.URL)
	if got := m[`distal_http_requests_total{endpoint="/v1/run"}`]; got != runs {
		t.Fatalf("metrics report %v /v1/run requests, want %d", got, runs)
	}
	if st.Endpoints["/v1/run"].Requests != runs || st.Requests != runs {
		t.Fatalf("stats report %+v, want %d /v1/run requests", st, runs)
	}
	for series, want := range map[string]float64{
		`distal_plan_cache_hits_total`:   float64(st.Cache.Hits),
		`distal_plan_cache_misses_total`: float64(st.Cache.Misses),
		`distal_plan_cache_entries`:      float64(st.Cache.Entries),
		`distal_inflight_requests`:       float64(st.Inflight),
		`distal_workers`:                 float64(st.Workers),
	} {
		if m[series] != want {
			t.Fatalf("%s = %v on /metrics but %v on /v1/stats", series, m[series], want)
		}
	}
	if m[`distal_run_batch_size_sum`] != float64(runs*instances) {
		t.Fatalf("batch-size sum = %v, want %d", m[`distal_run_batch_size_sum`], runs*instances)
	}
	if m[`distal_phase_duration_seconds_count{phase="execute"}`] != runs {
		t.Fatalf("execute phase count = %v, want %d", m[`distal_phase_duration_seconds_count{phase="execute"}`], runs)
	}
}

// TestFailureCountersByEndpoint: failures land on the failing endpoint with
// the taxonomy kind, on both surfaces.
func TestFailureCountersByEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/execute", ExecuteRequest{Stmt: "not a statement"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want 400", resp.StatusCode, body)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m[`distal_http_failures_total{endpoint="/v1/execute",kind="parse"}`]; got != 1 {
		t.Fatalf("failure counter = %v, want 1", got)
	}
	st := fetchStats(t, ts.URL)
	if st.Failures != 1 || st.ErrorsByKind["parse"] != 1 || st.Endpoints["/v1/execute"].Failures != 1 {
		t.Fatalf("stats failures = %+v, want one parse failure on /v1/execute", st)
	}
}

// TestAccessLog: LogJSON emits exactly one well-formed JSON line per
// request, carrying the request id the response advertised.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	var mu sync.Mutex
	ts := httptest.NewServer(New(sess, Config{LogJSON: true, LogWriter: syncWriter{&mu, &buf}}))
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/execute", summaRequest(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	id := resp.Header.Get(wire.HeaderRequestID)
	if id == "" {
		t.Fatal("no request id on the response")
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(logged), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d access-log lines, want 1: %q", len(lines), logged)
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access-log line is not JSON: %v (%s)", err, lines[0])
	}
	if entry["request_id"] != id || entry["endpoint"] != "/v1/execute" || entry["status"] != float64(200) {
		t.Fatalf("access-log entry = %v, want request_id=%s endpoint=/v1/execute status=200", entry, id)
	}
	if _, ok := entry["plan_key"]; !ok {
		t.Fatalf("access-log entry carries no plan_key: %v", entry)
	}
}

// TestAccessLogProgramKey: a multi-statement /v1/run logs the program's key
// — the one Distal-Plan-Key carries, not a stage's — with its cache
// provenance, both on the cold run, which compiles every stage, and on the
// warm one, which resolves the program from the request memo and compiles
// no stage at all.
func TestAccessLogProgramKey(t *testing.T) {
	const n = 16
	var (
		buf bytes.Buffer
		mu  sync.Mutex
	)
	sess := distal.NewSession(distal.NewMachine(distal.CPU, 2, 2))
	ts := httptest.NewServer(New(sess, Config{LogJSON: true, LogWriter: syncWriter{&mu, &buf}}))
	defer ts.Close()
	a := tensor.New("A", n, n)
	a.FillRandom(1)
	client := &wire.Client{BaseURL: ts.URL}
	for i, want := range []string{"miss", "hit"} {
		// Client.Run reads the body to EOF, which the server sends only after
		// its handler, access log included, has returned.
		_, stats, err := client.Run(context.Background(), chainRunRequest(n), map[string]*tensor.Dense{"A": a})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		mu.Unlock()
		if len(lines) != i+1 {
			t.Fatalf("run %d: %d access-log lines, want %d", i, len(lines), i+1)
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &entry); err != nil {
			t.Fatalf("access-log line is not JSON: %v (%s)", err, lines[i])
		}
		if entry["request_id"] != stats.RequestID || entry["plan_key"] != stats.PlanKey || entry["cache"] != want {
			t.Fatalf("%s run logged request_id=%v plan_key=%v cache=%v, want %s, the program key %s and %s",
				want, entry["request_id"], entry["plan_key"], entry["cache"], stats.RequestID, stats.PlanKey, want)
		}
	}
}

// TestRequestIDEcho: a client-supplied Distal-Request-Id is echoed and keys
// the trace.
func TestRequestIDEcho(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	data, _ := json.Marshal(summaRequest(64))
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", bytes.NewReader(data))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.HeaderRequestID, "caller-chosen-id")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get(wire.HeaderRequestID); got != "caller-chosen-id" {
		t.Fatalf("request id = %q, want the caller's", got)
	}
	tr := fetchTraceExport(t, ts.URL, "caller-chosen-id")
	if len(tr.TraceEvents) == 0 || tr.TraceEvents[0].Name != "/v1/execute" {
		t.Fatalf("trace for echoed id has events %+v, want a /v1/execute root", tr.TraceEvents)
	}
}

// TestRequestIDBounded: a caller-chosen id that is too long, or that no
// GET /v1/trace/{id} path could reach, is neither echoed nor kept; the
// request gets a generated id, whose trace is reachable. The longest
// accepted id, every allowed byte class included, is echoed.
func TestRequestIDBounded(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	data, _ := json.Marshal(summaRequest(64))
	echoed := func(t *testing.T, id string) string {
		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", bytes.NewReader(data))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(wire.HeaderRequestID, id)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		got := resp.Header.Get(wire.HeaderRequestID)
		if tr := fetchTraceExport(t, ts.URL, got); tr.OtherData["request_id"] != got {
			t.Fatalf("trace for id %q reports %q", got, tr.OtherData["request_id"])
		}
		return got
	}
	for name, id := range map[string]string{
		"900KiB": strings.Repeat("x", 900<<10),
		"65B":    strings.Repeat("x", 65),
		"slash":  "a/b",
		"space":  "a b",
	} {
		t.Run(name, func(t *testing.T) {
			if got := echoed(t, id); got == id || got == "" || len(got) > 64 {
				t.Fatalf("request id = %.80q, want a generated one", got)
			}
		})
	}
	id := strings.Repeat("aZ09._-", 10)[:64]
	if got := echoed(t, id); got != id {
		t.Fatalf("request id = %q, want the caller's %q", got, id)
	}
}

// syncWriter serializes concurrent access-log writes with reads in the test.
type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
