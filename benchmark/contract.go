package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set on
// end-to-end metrics only.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// metricValue and result are the output contract: the last line of stdout of
// one run is one result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func within(v float64) *float64 { return &v }

// endToEnd is the fixed end-to-end metric table; BENCHMARK.json must agree
// with it (checkBenchmarkFile). Every bound is the widest the contract
// allows: unchanged code spreads by up to half of it on the reference runner
// (README.md, "Why every bound is 0.25").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: within(0.25)},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: within(0.25)},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: within(0.25)},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: within(0.25)},
}

// perLayer is the per-layer metric table, layer names being the repo's
// packages. Every traced run emits every row; a workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "schedule.build_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_heaviest_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_allocs", Unit: "count", Better: "lower"},
	{Name: "core.launches", Unit: "count", Better: "lower"},
	{Name: "legion.walk_ms", Unit: "ms", Better: "lower"},
	{Name: "legion.walk_allocs", Unit: "count", Better: "lower"},
	{Name: "legion.copies", Unit: "count", Better: "lower"},
	{Name: "legion.real_run_ms", Unit: "ms", Better: "lower"},
	{Name: "legion.sim_walk_ms", Unit: "ms", Better: "lower"},
	{Name: "legion.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "legion.real_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "legion.drain_speedup", Unit: "ratio", Better: "higher"},
	{Name: "legion.real_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.golden_rows", Unit: "count", Better: "higher"},
	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.bytes_up", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_down", Unit: "count", Better: "lower"},
	{Name: "wire.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "session.hit_us", Unit: "us", Better: "lower"},
	{Name: "session.hit_contended_us", Unit: "us", Better: "lower"},
	{Name: "session.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "session.cache_hits", Unit: "count", Better: "higher"},
	{Name: "session.cache_misses", Unit: "count", Better: "lower"},
	{Name: "program.run_ms", Unit: "ms", Better: "lower"},
	{Name: "program.single_run_ms", Unit: "ms", Better: "lower"},
	{Name: "program.batch_ratio", Unit: "ratio", Better: "lower"},
	{Name: "program.repartitions", Unit: "count", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.requests", Unit: "count", Better: "higher"},
	{Name: "serve.failures", Unit: "count", Better: "lower"},
	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "tune.candidates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tune.evaluated", Unit: "count", Better: "higher"},
	{Name: "tune.generated", Unit: "count", Better: "higher"},
	{Name: "tune.illegal", Unit: "count", Better: "lower"},
	{Name: "tune.winner_makespan_s", Unit: "s", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "proc.gc_count", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricsFor returns the table a run with the given trace flag must emit.
func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// emptyMetrics is the metric set of a run that produced no measurement: every
// metric present with its unit, value 0.
func emptyMetrics(trace bool) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range metricsFor(trace) {
		m[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadBenchmarkFile reads and strictly decodes BENCHMARK.json.
func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, the limit is 64 KiB", path, len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// checkBenchmarkFile validates bf against the builder's contract and against
// the tables this binary emits. It returns every violation found.
func checkBenchmarkFile(bf *benchmarkFile) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if n := len(bf.Command); n < 1 || n > 32 {
		fail("command has %d strings, want 1..32", n)
	}
	for _, c := range bf.Command {
		if len(c) > 200 {
			fail("command string longer than 200 characters")
		}
		if strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			fail("command string %q names a path outside the checkout", c)
		}
	}
	if n := len(bf.Paths); n < 1 || n > 16 {
		fail("paths has %d entries, want 1..16", n)
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			fail("path %q is not a relative path of the allowed characters", p)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		fail("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if runs := 4 + 22*len(bf.Workloads); runs*bf.RunSeconds > 3420 {
		fail("%d runs of %d s do not fit 3420 s", runs, bf.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			fail("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			fail("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		fail("%d workloads, want 2..8", n)
	}
	for _, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			fail("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			fail("workload %s is not implemented by this binary", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		fail("BENCHMARK.json lists %d workloads, the binary implements %d", len(bf.Workloads), len(workloads))
	}

	table := func(kind string, got, want []metricDef, lo, hi int, bounded bool) {
		if n := len(got); n < lo || n > hi {
			fail("%d %s metrics, want %d..%d", n, kind, lo, hi)
		}
		for _, m := range got {
			name(kind+" metric", m.Name)
			if !unitRE.MatchString(m.Unit) {
				fail("%s: unit %q not allowed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				fail("%s: better is %q, want lower or higher", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				fail("%s: bound must be in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				fail("%s: per-layer metrics have no bound", m.Name)
			}
		}
		if len(got) != len(want) {
			fail("%s: BENCHMARK.json has %d metrics, the binary emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			g, w := got[i], want[i]
			same := g.Name == w.Name && g.Unit == w.Unit && g.Better == w.Better &&
				(g.Bound == nil) == (w.Bound == nil) && (g.Bound == nil || *g.Bound == *w.Bound)
			if !same {
				fail("%s metric %d: BENCHMARK.json says %+v, the binary says %+v", kind, i, g.Name, w.Name)
			}
		}
	}
	table("end_to_end", bf.EndToEnd, endToEnd, 1, 16, true)
	table("per_layer", bf.PerLayer, perLayer, 1, 128, false)
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		fail("end_to_end lacks setup_s (unit s, better lower)")
	}
	return bad
}

// checkResult validates one result object against the contract: exactly the
// metric set of its trace mode, each with its declared unit, all numbers
// finite, attempted >= 1 and attempted >= failed >= 0, correct iff nothing
// failed.
func checkResult(r *result, trace bool) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if r.Attempted < 1 {
		fail("attempted is %d, want >= 1", r.Attempted)
	}
	if r.Failed < 0 || r.Failed > r.Attempted {
		fail("failed is %d of %d attempted", r.Failed, r.Attempted)
	}
	if r.Correct != (r.Failed == 0) {
		fail("correct is %v with %d failed", r.Correct, r.Failed)
	}
	want := metricsFor(trace)
	if len(r.Metrics) != len(want) {
		fail("%d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			fail("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			fail("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			fail("metric %s is not finite", d.Name)
		case !trace && r.Correct && m.Value <= 0:
			fail("end-to-end metric %s is %v on a correct run, want > 0", d.Name, m.Value)
		}
	}
	return bad
}

// parseResultLine decodes exactly one result object with nothing after it,
// rejecting unknown keys: the form the last stdout line must have.
func parseResultLine(line []byte) (*result, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var r result
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("data after the result object")
	}
	if r.Metrics == nil {
		return nil, fmt.Errorf("result has no metrics object")
	}
	return &r, nil
}

// traceOf guesses a result's trace mode from its metric names (a result does
// not carry the flag).
func traceOf(r *result) bool {
	_, ok := r.Metrics[endToEnd[0].Name]
	return !ok
}
