package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one named set of inputs. prepare and setup are split so that
// input generation and the oracle stay out of setup_s.
type workload interface {
	// prepare builds the inputs and the oracle from the seed. Untimed.
	prepare(seed int64) error
	// setup constructs everything an operation needs (session, server, cold
	// compiles), runs the first operation and `warmups` more, and returns
	// the warm instance. The whole call is one setup_s sample; an end-to-end
	// run calls it once per segment.
	setup(warmups int) (instance, error)
}

// instance is a warm workload. op runs one verified operation and returns its
// latency with the verification excluded; an error is a failed operation.
type instance interface {
	clients() int
	// cycle is the number of consecutive ops after which a phase may stop:
	// 1, or the sweep length where ops are not interchangeable.
	cycle() int
	op(c opCtx) (time.Duration, error)
	// layers runs the traced pass's layer replay and micro-measurements and
	// stores per-layer metrics by name.
	layers(lc *layerCtx) error
	close()
}

// serverCounter is implemented by instances that front a server whose own
// request counters can be read back and compared with the client's.
type serverCounter interface {
	counts() (requests, failures int64, err error)
}

// opCtx identifies one operation to the instance; rec is nil on the untraced
// pass and in set-up (the zero opCtx), and every span helper is then a plain
// call. parent is the operation's own span and means something only with rec.
type opCtx struct {
	client int
	id     int
	rec    *recorder
	parent int
}

// span times f as a child span of the operation when tracing.
func (c opCtx) span(name string, f func() error) error {
	if c.rec == nil {
		return f()
	}
	return c.rec.call(name, c.id, c.parent, f)
}

// layerCtx is what the traced pass hands to instance.layers.
type layerCtx struct {
	rec      *recorder
	budget   time.Duration // wall time the instance may spend
	untraced phaseStats    // the untraced pass of this same run
	out      map[string]float64
}

// env is one run's parameters. warmups and segments are not command-line
// options: the defaults below are the benchmark, and only tests shrink them.
type env struct {
	seed     int64
	seconds  float64
	trace    bool
	warmups  int
	segments int
}

const (
	defaultWarmups = 20
	// defaultSegments is how many fresh instances share an end-to-end run's
	// measured time, and so how many set-ups the setup_s median is over.
	defaultSegments = 5
)

// workloads is the registry; names are final (later issues refer to them).
var workloads = map[string]func() workload{
	"paper-sweep": func() workload { return &sweepWorkload{} },
	"run-gemm":    func() workload { return newRunGemm() },
	"run-mttkrp":  func() workload { return newRunMTTKRP() },
	"serve-small": func() workload { return newServeSmall() },
	"chain-batch": func() workload { return newChainBatch() },
	"tune-gemm":   func() workload { return &tuneWorkload{} },
}

// workloadOrder is the order suites run and print in.
var workloadOrder = []string{"paper-sweep", "run-gemm", "run-mttkrp", "serve-small", "chain-batch", "tune-gemm"}

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	samples []time.Duration // latencies of the operations that succeeded
	wall    time.Duration
	failed  int
	firstEr error
}

// runPhase drives inst closed-loop for d: every client sends its next
// operation only after the previous one completed. A client stops at the
// first cycle boundary past the deadline.
func runPhase(inst instance, d time.Duration, rec *recorder) phase {
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	n := inst.clients()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []time.Duration
			failed := 0
			var firstErr error
			for i := 0; ; i++ {
				if i%inst.cycle() == 0 && !time.Now().Before(deadline) {
					break
				}
				oc := opCtx{client: c, id: i*n + c, rec: rec}
				if rec != nil {
					oc.parent = rec.begin("op", oc.id, -1)
				}
				lat, err := inst.op(oc)
				if rec != nil {
					rec.end(oc.parent)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				local = append(local, lat)
			}
			mu.Lock()
			ph.samples = append(ph.samples, local...)
			ph.failed += failed
			if ph.firstEr == nil {
				ph.firstEr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// measured is one closed-loop phase with its verification folded in.
type measured struct {
	phaseStats
	attempted, failed int
	served            int64 // requests the server counted, where there is one
	serverFailed      int64
}

// measure runs one phase on inst and checks the server's own counters, where
// the instance has a server, against the client's.
func measure(name string, inst instance, d time.Duration, rec *recorder) (measured, error) {
	var reqBefore, failBefore int64
	sc, counted := inst.(serverCounter)
	if counted {
		var err error
		if reqBefore, failBefore, err = sc.counts(); err != nil {
			return measured{}, fmt.Errorf("reading server counters: %w", err)
		}
	}
	ph := runPhase(inst, d, rec)
	m := measured{
		phaseStats: summarize(ph.samples, ph.wall),
		attempted:  len(ph.samples) + ph.failed,
		failed:     ph.failed,
	}
	if ph.firstEr != nil {
		logf("%s: %d of %d operations failed, first: %v", name, ph.failed, m.attempted, ph.firstEr)
	}
	if counted {
		reqAfter, failAfter, err := sc.counts()
		if err != nil {
			return measured{}, fmt.Errorf("reading server counters: %w", err)
		}
		// Read-only surfaces are uninstrumented, so the stats requests do not
		// count themselves and the delta is exactly the phase's requests.
		m.served, m.serverFailed = reqAfter-reqBefore, failAfter-failBefore
		if m.served != int64(m.attempted) || m.serverFailed != int64(m.failed) {
			logf("%s: server counted %d requests / %d failures, client %d / %d", name, m.served, m.serverFailed, m.attempted, m.failed)
			m.failed++
			m.attempted = max(m.attempted, m.failed)
		}
	}
	logf("%s: %d ops in %.2fs: %.2f ops/s, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		name, m.ops, ph.wall.Seconds(), m.throughput, m.p50, m.p90, m.p99)
	return m, nil
}

// runWorkload is the child's whole job: prepare the inputs and the oracle,
// then the end-to-end run or the traced one.
func runWorkload(name string, e env) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadOrder, ", "))
	}
	w := mk()
	if err := w.prepare(e.seed); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	res := &result{Metrics: emptyMetrics(e.trace)}
	set := func(name string, v float64) {
		m, ok := res.Metrics[name]
		if !ok {
			panic("benchmark: metric " + name + " is not in the table")
		}
		m.Value = v
		res.Metrics[name] = m
	}
	run := runEndToEnd
	if e.trace {
		run = runTraced
	}
	attempted, failed, err := run(name, w, e, set)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Attempted = max(attempted, 1)
	res.Failed = failed
	if attempted == 0 {
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runEndToEnd measures the four end-to-end metrics. The measured time is cut
// into e.segments equal segments, each on a freshly set-up instance (new
// session, new server, cold compiles, warm-ups), and every metric is the
// median over the segments. Set-up is thereby timed e.segments times, and a
// state one instance can get stuck in — run-mttkrp's two-worker drain
// sometimes runs several times slower than its serial drain for as long as
// the same pooled kernel scratches stay in circulation — costs a segment,
// not the run.
func runEndToEnd(name string, w workload, e env, set func(string, float64)) (attempted, failed int, err error) {
	var setups, tputs, p50s, p90s []float64
	beyond := 0
	for k := 0; k < e.segments; k++ {
		runtime.GC() // the previous segment's garbage is not this set-up's cost
		t0 := time.Now()
		inst, err := w.setup(e.warmups)
		if err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		m, err := measure(name, inst, time.Duration(e.seconds/float64(e.segments)*float64(time.Second)), nil)
		inst.close()
		if err != nil {
			return 0, 0, err
		}
		attempted, failed = attempted+m.attempted, failed+m.failed
		if m.ops > 0 {
			tputs, p50s, p90s = append(tputs, m.throughput), append(p50s, m.p50), append(p90s, m.p90)
			beyond += samplesBeyond(m.ops, 90)
		}
	}
	logf("%s: setup_s %.3f, %d samples, %d beyond the segments' p90", name, setups, attempted-failed, beyond)
	if beyond < minBeyond {
		logf("%s: the rule asks for %d samples beyond p90: lengthen the run", name, minBeyond)
	}
	set("setup_s", median(setups))
	set("throughput_ops_s", median(tputs))
	set("latency_p50_ms", median(p50s))
	set("latency_p90_ms", median(p90s))
	return attempted, failed, nil
}

// runTraced produces the per-layer table on one instance: an untraced phase
// (the baseline of the trace overhead and the source of the proc.* numbers),
// a traced phase, then the instance's own layer measurements.
func runTraced(name string, w workload, e env, set func(string, float64)) (attempted, failed int, err error) {
	inst, err := w.setup(e.warmups)
	if err != nil {
		return 0, 0, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	total := time.Duration(e.seconds * float64(time.Second))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	un, err := measure(name, inst, total*3/10, nil)
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	rec := newRecorder()
	tr, err := measure(name, inst, total*3/10, rec)
	if err != nil {
		return 0, 0, err
	}
	lc := &layerCtx{rec: rec, budget: total * 4 / 10, untraced: un.phaseStats, out: map[string]float64{}}
	if err := inst.layers(lc); err != nil {
		return 0, 0, fmt.Errorf("layer replay: %w", err)
	}
	for k, v := range lc.out {
		set(k, v)
	}
	ops := float64(max(un.ops, 1))
	set("proc.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	set("proc.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/ops)
	set("proc.gc_count", float64(after.NumGC-before.NumGC))
	set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	set("proc.peak_rss_mb", peakRSSMB())
	set("proc.latency_p99_ms", un.p99)
	set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	set("bench.samples", float64(un.ops))
	// The traced pass interleaves each op with its layer replay, so its
	// wall-clock throughput is not comparable; in a closed loop a client's
	// rate is the inverse of its op latency, and that is what is compared.
	set("bench.trace_overhead_pct", 100*(ratio(tr.p50, un.p50)-1))
	if _, counted := inst.(serverCounter); counted {
		set("serve.requests", ratio(float64(un.served), float64(un.attempted)))
		set("serve.failures", float64(un.serverFailed))
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		logf("%s: not writing the trace: %v", name, err)
	} else if err := rec.writeChrome(filepath.Join(traceDir, "trace-"+name+".json")); err != nil {
		logf("%s: not writing the trace: %v", name, err)
	}
	return un.attempted + tr.attempted, un.failed + tr.failed, nil
}

// traceDir receives the Chrome traces of traced runs, relative to the
// checkout root the command runs from.
const traceDir = "benchmark/out"

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is no procfs.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// timed runs f repeatedly — at least lo times, then until budget is spent or
// hi runs are done — and returns each call's duration in milliseconds.
func timed(budget time.Duration, lo, hi int, f func() error) ([]float64, error) {
	var out []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < hi && (i < lo || time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// mallocs returns the heap allocation count so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
