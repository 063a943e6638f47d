package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: within(0.10)}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: within(0.10)}
	tight := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 100, 120, 90, 110}
	for _, c := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", tight, tight, lower, "ok"},
		{"within the bound", tight, []float64{105, 106, 104, 105, 105}, lower, "ok"},
		{"latency up 20%", tight, []float64{120, 121, 119, 120, 120}, lower, "worse"},
		{"latency down 20%", tight, []float64{80, 81, 79, 80, 80}, lower, "ok"},
		{"throughput down 20%", tight, []float64{80, 81, 79, 80, 80}, higher, "worse"},
		{"throughput up 20%", tight, []float64{120, 121, 119, 120, 120}, higher, "ok"},
		{"noisy parent, overlapping runs", noisy, []float64{85, 105, 125, 95, 115}, lower, "unresolved"},
		{"noisy parent, median beyond the bound but overlapping", noisy, []float64{100, 115, 130, 110, 125}, lower, "unresolved"},
		{"noisy parent, every run worse", noisy, []float64{130, 140, 150, 135, 145}, lower, "worse"},
		{"noisy parent, every run better", noisy, []float64{50, 60, 70, 55, 65}, lower, "ok"},
		{"single runs", []float64{100}, []float64{120}, lower, "worse"},
	} {
		if _, got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// suiteOf builds a suite file in which every workload reports the same
// end-to-end values, scaled per workload by scale.
func suiteOf(t *testing.T, dir, name string, scale map[string]float64) string {
	t.Helper()
	var st suite
	for _, wl := range workloadOrder {
		f := 1.0
		if s, ok := scale[wl]; ok {
			f = s
		}
		res := result{Correct: true, Attempted: 300, Metrics: emptyMetrics(false)}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{Value: 10 * f, Unit: d.Unit}
		}
		st.Runs = append(st.Runs, suiteRun{Workload: wl, Seed: 1, Result: res})
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	a := suiteOf(t, dir, "a.json", nil)
	same := suiteOf(t, dir, "same.json", nil)
	slow := suiteOf(t, dir, "slow.json", map[string]float64{"run-gemm": 1.5})

	var out bytes.Buffer
	if code := compareMain(a, same, &out); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 1+len(workloadOrder)*len(endToEnd) {
		t.Errorf("compare printed %d lines, want a header and one row per workload x metric:\n%s", n, out.String())
	}
	out.Reset()
	if code := compareMain(a, slow, &out); code != 1 {
		t.Errorf("compare against a 1.5x slower run-gemm exited %d, want 1:\n%s", code, out.String())
	}
	// Every metric scaled by 1.5: the three lower-is-better rows are worse,
	// throughput (higher is better) improved.
	var worse int
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "run-gemm") && strings.HasSuffix(line, "worse") {
			worse++
		}
	}
	if worse != 3 {
		t.Errorf("%d run-gemm rows are worse, want 3:\n%s", worse, out.String())
	}
}
