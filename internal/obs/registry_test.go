package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the Prometheus text exposition format byte for
// byte — family ordering, HELP/TYPE lines, label rendering and escaping,
// histogram bucket cumulation, and the standard bucket bounds. A diff here
// means every dashboard scraping /metrics changes.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("distal_http_requests_total", "Requests by endpoint.", []string{"endpoint"}, "/v1/run").Add(3)
	r.Counter("distal_http_requests_total", "Requests by endpoint.", []string{"endpoint"}, "/v1/batch").Inc()
	r.Gauge("distal_inflight_requests", "Requests currently executing.", nil).Set(2)
	r.GaugeFunc("distal_uptime_seconds", "Seconds since server start.", nil, func() float64 { return 1.5 })
	h := r.Histogram("distal_queue_wait_seconds", "Queue wait before a worker slot.", []float64{0.001, 0.01, 0.1}, nil)
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)
	r.Counter("distal_errors_total", "Errors by kind.", []string{"endpoint", "kind"}, "/v1/run", `bad"kind`+"\n").Inc()

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	want := `# HELP distal_errors_total Errors by kind.
# TYPE distal_errors_total counter
distal_errors_total{endpoint="/v1/run",kind="bad\"kind\n"} 1
# HELP distal_http_requests_total Requests by endpoint.
# TYPE distal_http_requests_total counter
distal_http_requests_total{endpoint="/v1/batch"} 1
distal_http_requests_total{endpoint="/v1/run"} 3
# HELP distal_inflight_requests Requests currently executing.
# TYPE distal_inflight_requests gauge
distal_inflight_requests 2
# HELP distal_queue_wait_seconds Queue wait before a worker slot.
# TYPE distal_queue_wait_seconds histogram
distal_queue_wait_seconds_bucket{le="0.001"} 2
distal_queue_wait_seconds_bucket{le="0.01"} 2
distal_queue_wait_seconds_bucket{le="0.1"} 3
distal_queue_wait_seconds_bucket{le="+Inf"} 4
distal_queue_wait_seconds_sum 3.051
distal_queue_wait_seconds_count 4
# HELP distal_uptime_seconds Seconds since server start.
# TYPE distal_uptime_seconds gauge
distal_uptime_seconds 1.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestStandardBuckets pins the shared bucket bounds: CI's metrics smoke and
// any recording rules key off these exact le= values.
func TestStandardBuckets(t *testing.T) {
	wantLatency := []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	if len(LatencyBuckets) != len(wantLatency) {
		t.Fatalf("LatencyBuckets: got %d bounds, want %d", len(LatencyBuckets), len(wantLatency))
	}
	for i := range wantLatency {
		if LatencyBuckets[i] != wantLatency[i] {
			t.Errorf("LatencyBuckets[%d] = %v, want %v", i, LatencyBuckets[i], wantLatency[i])
		}
	}
	wantSize := []float64{1, 2, 4, 8, 16, 32, 64}
	if len(SizeBuckets) != len(wantSize) {
		t.Fatalf("SizeBuckets: got %d bounds, want %d", len(SizeBuckets), len(wantSize))
	}
	for i := range wantSize {
		if SizeBuckets[i] != wantSize[i] {
			t.Errorf("SizeBuckets[%d] = %v, want %v", i, SizeBuckets[i], wantSize[i])
		}
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// increments, observations, and scrapes interleaved — and then checks the
// totals. Run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("reqs_total", "test", []string{"ep"}, "/run")
			h := r.Histogram("lat_seconds", "test", []float64{0.5}, nil)
			g := r.Gauge("inflight", "test", nil)
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 2))
				g.Add(1)
				g.Add(-1)
				if i%100 == 0 {
					var b strings.Builder
					if _, err := r.WriteTo(&b); err != nil {
						t.Errorf("WriteTo: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("reqs_total", "test", []string{"ep"}, "/run").Value(); got != workers*per {
		t.Errorf("counter = %v, want %d", got, workers*per)
	}
	h := r.Histogram("lat_seconds", "test", []float64{0.5}, nil)
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); got != workers*per/2 {
		t.Errorf("histogram sum = %v, want %d", got, workers*per/2)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter after negative Add = %v, want 5", got)
	}
}
