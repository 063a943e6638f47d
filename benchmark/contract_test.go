package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// The committed BENCHMARK.json must satisfy the contract and agree with the
// tables this binary emits.
func TestBenchmarkFileMatchesBinary(t *testing.T) {
	bf, err := loadBenchmarkFile("../" + benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range checkBenchmarkFile(bf) {
		t.Error(b)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the binary defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
}

func TestCheckBenchmarkFileCatches(t *testing.T) {
	load := func() *benchmarkFile {
		bf, err := loadBenchmarkFile("../" + benchmarkJSON)
		if err != nil {
			t.Fatal(err)
		}
		return bf
	}
	for name, breakIt := range map[string]func(*benchmarkFile){
		"bad name":         func(bf *benchmarkFile) { bf.Workloads[0].Name = "paper sweep" },
		"duplicate name":   func(bf *benchmarkFile) { bf.PerLayer[1].Name = bf.PerLayer[0].Name },
		"bound too wide":   func(bf *benchmarkFile) { bf.EndToEnd[1].Bound = within(0.5) },
		"no setup_s":       func(bf *benchmarkFile) { bf.EndToEnd[0].Name = "startup_s" },
		"absolute command": func(bf *benchmarkFile) { bf.Command = []string{"/usr/bin/go"} },
		"path escapes":     func(bf *benchmarkFile) { bf.Paths = []string{"../benchmark"} },
		"long why":         func(bf *benchmarkFile) { bf.Workloads[0].Why = strings.Repeat("x", 201) },
		"bounded layer":    func(bf *benchmarkFile) { bf.PerLayer[0].Bound = within(0.1) },
		"too long a run":   func(bf *benchmarkFile) { bf.RunSeconds = 61 },
	} {
		bf := load()
		breakIt(bf)
		if len(checkBenchmarkFile(bf)) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func goodResult(trace bool) *result {
	r := &result{Correct: true, Attempted: 10, Metrics: emptyMetrics(trace)}
	for name, m := range r.Metrics {
		m.Value = 1.5
		r.Metrics[name] = m
	}
	return r
}

func TestCheckResult(t *testing.T) {
	for _, trace := range []bool{false, true} {
		if bad := checkResult(goodResult(trace), trace); len(bad) > 0 {
			t.Errorf("trace %v: a good result is rejected: %v", trace, bad)
		}
		if bad := checkResult(failedResult(trace), trace); len(bad) > 0 {
			t.Errorf("trace %v: the failed-workload result is rejected: %v", trace, bad)
		}
	}
	for name, breakIt := range map[string]func(*result){
		"missing metric":       func(r *result) { delete(r.Metrics, "setup_s") },
		"extra metric":         func(r *result) { r.Metrics["extra"] = metricValue{Value: 1, Unit: "ms"} },
		"wrong unit":           func(r *result) { r.Metrics["setup_s"] = metricValue{Value: 1, Unit: "ms"} },
		"zero on a good run":   func(r *result) { r.Metrics["setup_s"] = metricValue{Unit: "s"} },
		"failed > attempted":   func(r *result) { r.Failed, r.Correct = 11, false },
		"negative failed":      func(r *result) { r.Failed = -1 },
		"nothing attempted":    func(r *result) { r.Attempted = 0 },
		"correct with failure": func(r *result) { r.Failed = 1 },
	} {
		r := goodResult(false)
		breakIt(r)
		if len(checkResult(r, false)) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestCheckOutput(t *testing.T) {
	line, err := json.Marshal(goodResult(false))
	if err != nil {
		t.Fatal(err)
	}
	good := string(line) + "\n"
	if bad := checkOutput([]byte(good)); len(bad) > 0 {
		t.Errorf("a good stdout is rejected: %v", bad)
	}
	st, err := json.Marshal(suite{Runs: []suiteRun{{Workload: "run-gemm", Seed: 1, Result: *goodResult(false)}}})
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkOutput(append(st, '\n')); len(bad) > 0 {
		t.Errorf("a good suite is rejected: %v", bad)
	}
	for name, out := range map[string]string{
		"text before":      "starting\n" + good,
		"text after":       good + "done\n",
		"no newline":       string(line),
		"two objects":      string(line) + string(line) + "\n",
		"unknown key":      `{"correct":true,"attempted":1,"failed":0,"metrics":{},"note":"x"}` + "\n",
		"NaN":              strings.Replace(good, "1.5", "NaN", 1),
		"empty":            "",
		"not json":         "ok\n",
		"missing a metric": `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"}}}` + "\n",
	} {
		if len(checkOutput([]byte(out))) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}
