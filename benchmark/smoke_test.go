package main

import (
	"testing"

	"distal/internal/experiments"
)

// shrink swaps the workloads whose sequential oracle takes seconds at full
// size for the same workload on small tensors, so the smoke run exercises
// every code path — oracle, set-up, measured phase, traced phase, layer
// replay — in a fraction of the time. Names, statements, formats, schedules
// and grids are untouched.
func shrink(t *testing.T) {
	t.Helper()
	saved := map[string]func() workload{}
	for k, v := range workloads {
		saved[k] = v
	}
	t.Cleanup(func() { workloads = saved })
	workloads = map[string]func() workload{}
	for k, v := range saved {
		workloads[k] = v
	}
	workloads["run-gemm"] = func() workload {
		w := newRunGemm()
		w.req.Shapes = square(64, "A", "B", "C")
		return w
	}
	workloads["run-mttkrp"] = func() workload {
		w := newRunMTTKRP()
		w.req.Shapes = map[string][]int{"A": {16, 8}, "B": {16, 16, 16}, "C": {16, 8}, "D": {16, 8}}
		return w
	}
	workloads["chain-batch"] = func() workload {
		w := newChainBatch()
		w.req.Shapes = map[string][]int{"A": {64, 8}, "B": {8, 64}, "C": {64, 8}}
		return w
	}
}

var smokeEnv = env{seed: 3, seconds: 0.2, warmups: 2, segments: 2}

// TestSmoke runs five workloads through the traced pass (which contains the
// untraced one) and one through the end-to-end path, oracle checks on.
// paper-sweep is covered by TestGoldenFlip.
func TestSmoke(t *testing.T) {
	shrink(t)
	traceDirForTest(t)
	for _, name := range []string{"run-gemm", "run-mttkrp", "serve-small", "chain-batch", "tune-gemm"} {
		e := smokeEnv
		e.trace = true
		res, err := runWorkload(name, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad := checkResult(res, true); len(bad) > 0 {
			t.Errorf("%s: %v", name, bad)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		for _, m := range layerMetricsOf[name] {
			if res.Metrics[m].Value == 0 {
				t.Errorf("%s: per-layer metric %s is 0, want a measurement", name, m)
			}
		}
	}
	res, err := runWorkload("serve-small", smokeEnv)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkResult(res, false); len(bad) > 0 || !res.Correct {
		t.Errorf("serve-small end to end: %v, result %+v", bad, res)
	}
}

// layerMetricsOf names, per workload, per-layer metrics that must be non-zero
// when the workload exercises the layer.
var layerMetricsOf = map[string][]string{
	"run-gemm": {"legion.real_run_ms", "legion.sim_walk_ms", "legion.real_gflops", "legion.drain_speedup",
		"legion.real_allocs", "wire.encode_ms", "wire.decode_ms", "wire.bytes_up", "wire.bytes_down",
		"wire.decode_mb_s", "session.hit_us", "session.hit_contended_us", "session.miss_ms", "session.cache_hits",
		"schedule.parse_us", "serve.execute_ms", "serve.requests", "proc.allocs_per_op", "proc.gomaxprocs", "bench.samples"},
	"run-mttkrp":  {"legion.real_run_ms", "legion.real_gflops", "wire.bytes_up", "serve.execute_ms"},
	"serve-small": {"legion.real_run_ms", "session.hit_contended_us", "serve.requests"},
	"chain-batch": {"program.run_ms", "program.single_run_ms", "program.batch_ratio", "legion.sim_walk_ms",
		"wire.bytes_up", "session.hit_us", "session.miss_ms", "schedule.parse_us", "serve.requests"},
	"tune-gemm": {"tune.candidates_per_s", "tune.evaluated", "tune.generated", "tune.winner_makespan_s",
		"session.cache_misses", "session.miss_ms", "schedule.parse_us"},
	"paper-sweep": {"schedule.build_ms", "core.compile_ms", "core.compile_heaviest_ms", "core.compile_allocs",
		"core.launches", "legion.walk_ms", "legion.walk_allocs", "legion.copies", "sim.golden_rows"},
}

// traceDirForTest keeps the traced pass's Chrome traces out of the package
// directory: the test's working directory becomes a temporary one.
func traceDirForTest(t *testing.T) {
	t.Helper()
	t.Chdir(t.TempDir())
}

// flippedSweep is paper-sweep with one golden value changed after loading.
type flippedSweep struct{ sweepWorkload }

func (w *flippedSweep) prepare(seed int64) error {
	if err := w.sweepWorkload.prepare(seed); err != nil {
		return err
	}
	row := w.golden["matmul-cpu-summa"]
	row.Copies++
	w.golden["matmul-cpu-summa"] = row
	return nil
}

func (w *flippedSweep) setup(n int) (instance, error) { return w.sweepWorkload.setup(n) }

// TestGoldenFlip: one flipped golden value fails exactly the operations that
// simulate that configuration — one per sweep — and the result stays
// well-formed. The other nineteen of every sweep pass, which is the
// paper-sweep smoke run.
func TestGoldenFlip(t *testing.T) {
	shrink(t)
	traceDirForTest(t)
	workloads["paper-sweep"] = func() workload { return &flippedSweep{} }
	e := smokeEnv
	e.seconds = 0.01
	e.trace = true
	res, err := runWorkload("paper-sweep", e)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkResult(res, true); len(bad) > 0 {
		t.Errorf("result is not well-formed: %v", bad)
	}
	sweeps := res.Attempted / len(sweepConfigs())
	if res.Correct || sweeps < 2 || res.Attempted%len(sweepConfigs()) != 0 || res.Failed != sweeps {
		t.Errorf("attempted %d, failed %d, correct %v; want whole sweeps and one failure per sweep", res.Attempted, res.Failed, res.Correct)
	}
	for _, m := range layerMetricsOf["paper-sweep"] {
		if res.Metrics[m].Value == 0 {
			t.Errorf("per-layer metric %s is 0, want a measurement", m)
		}
	}
}

// The sweep sizes its problems exactly as the repository's figure generator
// does: the golden rows of the twelve matmul configurations must be what
// experiments.Metrics computes at the same node count, field for field.
func TestSweepMatchesExperiments(t *testing.T) {
	names := map[string]bool{}
	for _, c := range sweepConfigs() {
		if names[c.name] {
			t.Errorf("configuration %s listed twice", c.name)
		}
		names[c.name] = true
	}
	if len(names) != 20 || !names[heaviestConfig] {
		t.Errorf("%d configurations (heaviest present: %v), want 20", len(names), names[heaviestConfig])
	}
	golden, err := loadSweepGolden()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]simRow{}
	for _, r := range golden {
		byName[r.Config] = r
	}
	rows, err := experiments.Metrics(sweepNodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("experiments.Metrics gave %d rows, want 12", len(rows))
	}
	for _, r := range rows {
		name := r.Experiment + "-" + r.Config
		want := simRow{Config: name, MakespanSec: r.MakespanSec, Copies: r.Copies, IntraBytes: r.IntraBytes,
			InterBytes: r.InterBytes, PeakMemBytes: r.PeakMemBytes, OOM: r.OOM}
		if got, ok := byName[name]; !ok || got != want {
			t.Errorf("%s: golden %+v, experiments.Metrics %+v", name, got, want)
		}
	}
}
