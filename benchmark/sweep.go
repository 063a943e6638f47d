package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/legion"
	"distal/internal/sim"
)

// sweepNodes is the node count of the paper's largest runs (Fig. 15/16).
const sweepNodes = 256

// sweepConfig is one of the 20 configurations of the paper sweep: how to
// build its compiler input and which simulated machine prices it.
type sweepConfig struct {
	name   string
	build  func() (core.Input, error)
	params sim.Params
}

// simRow is what the simulator reports for one configuration — the golden
// file holds one per configuration and every op is compared with it exactly.
type simRow struct {
	Config       string  `json:"config"`
	MakespanSec  float64 `json:"makespan_sec"`
	Copies       int64   `json:"copies"`
	IntraBytes   int64   `json:"intra_bytes"`
	InterBytes   int64   `json:"inter_bytes"`
	PeakMemBytes int64   `json:"peak_mem_bytes"`
	OOM          bool    `json:"oom"`
}

// simRowFields is how many simulated fields one golden row pins.
const simRowFields = 6

func rowOf(name string, r *legion.Result) simRow {
	return simRow{Config: name, MakespanSec: r.Time, Copies: r.Copies, IntraBytes: r.IntraBytes,
		InterBytes: r.InterBytes, PeakMemBytes: r.PeakMemBytes, OOM: r.OOM}
}

// sweepConfigs lists the 20 configurations in their fixed order: the six
// Fig. 15 matmul algorithms on CPU then GPU, then the four Fig. 16 kernels on
// CPU then GPU, weak-scaled to sweepNodes exactly as experiments.Metrics and
// experiments.Fig16 size them (2 CPU sockets or 4 GPUs per node; matrix
// extents grow with sqrt(nodes) rounded to 64, 3-tensor extents with
// cbrt(nodes) rounded to 16).
func sweepConfigs() []sweepConfig {
	var out []sweepConfig
	side := func(gpu bool) (tag string, procs, ppn int, params sim.Params) {
		if gpu {
			return "gpu", sweepNodes * 4, 4, sim.LassenGPU()
		}
		return "cpu", sweepNodes * 2, 2, sim.LassenCPU()
	}
	for _, gpu := range []bool{false, true} {
		tag, procs, ppn, params := side(gpu)
		base := 8192
		if gpu {
			base = 19968
		}
		n := int(math.Round(float64(base)*math.Sqrt(sweepNodes)/64)) * 64
		for _, alg := range algorithms.MatmulAlgs {
			cfg := algorithms.MatmulConfig{N: n, Procs: procs, ProcsPerNode: ppn, GPU: gpu}
			out = append(out, sweepConfig{
				name:   fmt.Sprintf("matmul-%s-%s", tag, alg),
				build:  func() (core.Input, error) { return algorithms.Matmul(alg, cfg) },
				params: params,
			})
		}
	}
	cube := func(base int) int {
		return max(int(math.Round(float64(base)*math.Cbrt(sweepNodes)/16))*16, 16)
	}
	higher := []struct {
		name    string
		i, j, k int
		l       int
		build   func(algorithms.HigherConfig) (core.Input, error)
	}{
		{"ttv", 1024, 1024, 512, 0, algorithms.TTV},
		{"innerprod", 1024, 1024, 512, 0, algorithms.Innerprod},
		{"ttm", 768, 768, 768, 32, algorithms.TTM},
		{"mttkrp", 768, 768, 768, 32, algorithms.MTTKRP},
	}
	for _, gpu := range []bool{false, true} {
		tag, procs, ppn, params := side(gpu)
		for _, h := range higher {
			cfg := algorithms.HigherConfig{I: cube(h.i), J: cube(h.j), K: cube(h.k), L: h.l,
				Procs: procs, ProcsPerNode: ppn, GPU: gpu}
			out = append(out, sweepConfig{
				name:   fmt.Sprintf("%s-%s", h.name, tag),
				build:  func() (core.Input, error) { return h.build(cfg) },
				params: params,
			})
		}
	}
	return out
}

// heaviestConfig is the configuration whose compile sets paper-sweep's p90.
const heaviestConfig = "matmul-gpu-cannon"

// sweepWorkload is paper-sweep: the model-side product. It is seed-independent
// by construction — the paper's configurations carry no random data — so the
// seed is ignored.
type sweepWorkload struct {
	configs []sweepConfig
	golden  map[string]simRow
}

func (w *sweepWorkload) prepare(int64) error {
	w.configs = sweepConfigs()
	rows, err := loadSweepGolden()
	if err != nil {
		return err
	}
	w.golden = map[string]simRow{}
	for _, r := range rows {
		w.golden[r.Config] = r
	}
	for _, c := range w.configs {
		if _, ok := w.golden[c.name]; !ok {
			return fmt.Errorf("golden file has no row for %s (run -write-golden)", c.name)
		}
	}
	return nil
}

// errMismatch marks an operation that ran but whose output is wrong.
var errMismatch = errors.New("output mismatch")

// setup has no session or server to build: it is one full untimed sweep, the
// cold pass that faults in code and warms the allocator. A golden mismatch
// here is not fatal: the measured phase will count it, op by op.
func (w *sweepWorkload) setup(int) (instance, error) {
	inst := &sweepInstance{w: w}
	for range w.configs {
		if _, err := inst.op(opCtx{}); err != nil && !errors.Is(err, errMismatch) {
			return nil, err
		}
	}
	inst.next = 0
	return inst, nil
}

type sweepInstance struct {
	w    *sweepWorkload
	next int
}

func (s *sweepInstance) clients() int { return 1 }
func (s *sweepInstance) cycle() int   { return len(s.w.configs) }
func (s *sweepInstance) close()       {}

// op builds, cold-compiles and simulates the next configuration, then
// compares every simulated field with the golden row.
func (s *sweepInstance) op(c opCtx) (time.Duration, error) {
	cfg := s.w.configs[s.next%len(s.w.configs)]
	s.next++
	t0 := time.Now()
	row, err := runConfig(cfg, c)
	lat := time.Since(t0)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", cfg.name, err)
	}
	if want := s.w.golden[cfg.name]; row != want {
		return lat, fmt.Errorf("%s: %w: simulated %+v, golden %+v", cfg.name, errMismatch, row, want)
	}
	return lat, nil
}

// runConfig is one build → core.Compile (cold, no cache) → legion.Run
// (simulate), each call a span when tracing.
func runConfig(cfg sweepConfig, c opCtx) (simRow, error) {
	var (
		in   core.Input
		prog *legion.Program
		res  *legion.Result
	)
	if err := c.span("schedule.build", func() (err error) { in, err = cfg.build(); return }); err != nil {
		return simRow{}, err
	}
	if err := c.span("core.compile", func() (err error) { prog, err = core.Compile(in); return }); err != nil {
		return simRow{}, err
	}
	if err := c.span("legion.walk", func() (err error) {
		res, err = legion.Run(prog, legion.Options{Params: cfg.params})
		return
	}); err != nil {
		return simRow{}, err
	}
	return rowOf(cfg.name, res), nil
}

// layers reports the sweep's layer split. Timings are sums per sweep, median
// over the traced pass's sweeps; the allocation and size counts come from one
// extra sweep with each call bracketed by a MemStats read.
func (s *sweepInstance) layers(lc *layerCtx) error {
	n := len(s.w.configs)
	perSweep := map[string]map[int]float64{}
	var heaviest []float64
	lc.rec.mu.Lock()
	for _, sp := range lc.rec.spans {
		if sp.Parent < 0 || sp.End < sp.Start {
			continue
		}
		if perSweep[sp.Name] == nil {
			perSweep[sp.Name] = map[int]float64{}
		}
		perSweep[sp.Name][sp.Op/n] += ms(sp.End - sp.Start)
		if sp.Name == "core.compile" && s.w.configs[sp.Op%n].name == heaviestConfig {
			heaviest = append(heaviest, ms(sp.End-sp.Start))
		}
	}
	lc.rec.mu.Unlock()
	med := func(name string) float64 {
		var xs []float64
		for _, v := range perSweep[name] {
			xs = append(xs, v)
		}
		return median(xs)
	}
	lc.out["schedule.build_ms"] = med("schedule.build")
	lc.out["core.compile_ms"] = med("core.compile")
	lc.out["core.compile_heaviest_ms"] = median(heaviest)
	lc.out["legion.walk_ms"] = med("legion.walk")

	var compileAllocs, walkAllocs uint64
	var launches int
	var copies int64
	for _, cfg := range s.w.configs {
		in, err := cfg.build()
		if err != nil {
			return err
		}
		m0 := mallocs()
		prog, err := core.Compile(in)
		if err != nil {
			return err
		}
		m1 := mallocs()
		res, err := legion.Run(prog, legion.Options{Params: cfg.params})
		if err != nil {
			return err
		}
		m2 := mallocs()
		compileAllocs += m1 - m0
		walkAllocs += m2 - m1
		launches += len(prog.Launches)
		copies += res.Copies
	}
	lc.out["core.compile_allocs"] = float64(compileAllocs)
	lc.out["core.launches"] = float64(launches)
	lc.out["legion.walk_allocs"] = float64(walkAllocs)
	lc.out["legion.copies"] = float64(copies)
	lc.out["sim.golden_rows"] = float64(n * simRowFields)
	return nil
}
