package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	"distal"
	"distal/internal/ir"
	"distal/internal/obs"
	"distal/internal/program"
	"distal/internal/schedule"
	"distal/internal/serve"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// httpWorkload is a warm POST /v1/run loop against an in-process server over
// loopback HTTP: run-gemm, run-mttkrp, serve-small and chain-batch differ
// only in this description.
type httpWorkload struct {
	grid    []int
	req     wire.RunRequest // Inputs and Batch are filled in by prepare
	batch   int             // 0: single-instance protocol; N: "batch": N
	nclient int

	// Built by prepare.
	leaves []string                   // wire-framed inputs, frame order
	data   []map[string]*tensor.Dense // per instance: leaf name -> data
	oracle []*tensor.Dense            // per instance: reference output
}

const gemm = "A(i,j) = B(i,k) * C(k,j)"

func summa(chunk int) string {
	return fmt.Sprintf("divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) "+
		"split(k,ko,ki,%d) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)", chunk)
}

func square(n int, names ...string) map[string][]int {
	out := map[string][]int{}
	for _, name := range names {
		out[name] = []int{n, n}
	}
	return out
}

// newRunGemm: SUMMA n=256 on a 4x4 CPU grid, the schedule of hotpath_wire.go.
// The leaf kernel's one-multiply strided-row path does most of the work.
func newRunGemm() *httpWorkload {
	return &httpWorkload{
		grid:    []int{4, 4},
		req:     wire.RunRequest{Stmt: gemm, Shapes: square(256, "A", "B", "C"), Schedule: summa(64)},
		nclient: 1,
	}
}

// newServeSmall: the same statement at n=64, where the kernels are a small
// share and HTTP, JSON, the session memo, binding and the launch walk decide
// the result. It is the only workload with more than one client.
func newServeSmall() *httpWorkload {
	return &httpWorkload{
		grid:    []int{4, 4},
		req:     wire.RunRequest{Stmt: gemm, Shapes: square(64, "A", "B", "C"), Schedule: summa(8)},
		nclient: min(runtime.NumCPU(), 2),
	}
}

// newRunMTTKRP: the paper's MTTKRP (examples/mttkrp, Fig. 16d) on a 2x2x2
// grid: a two-multiply rank-3 body that takes the general row path, with a
// distributed reduction into A.
func newRunMTTKRP() *httpWorkload {
	return &httpWorkload{
		grid: []int{2, 2, 2},
		req: wire.RunRequest{
			Stmt:    "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
			Shapes:  map[string][]int{"A": {64, 32}, "B": {64, 64, 64}, "C": {64, 32}, "D": {64, 32}},
			Formats: map[string]string{"A": "ab->a00", "B": "abc->abc", "C": "ab->*a*", "D": "ab->**a"},
			Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) divide(k,ko,ki,2) " +
				"reorder(io,jo,ko,ii,ji,ki,l) distribute(io,jo,ko) communicate(ko,A,B,C,D)",
		},
		nclient: 1,
	}
}

// newChainBatch: the low-rank chain of hotpath_chain.go as one "stmts"
// request with "batch": 4 — the only workload through internal/program,
// ProgramPlan.BindBatch, legion.RunStages and batched framing.
func newChainBatch() *httpWorkload {
	const n, k = 256, 8
	return &httpWorkload{
		grid: []int{4, 4},
		req: wire.RunRequest{
			Shapes: map[string][]int{"A": {n, k}, "B": {k, n}, "C": {n, k}},
			Stmts: []wire.StmtSpec{
				{Stmt: "D(i,j) = A(i,k) * B(k,j)", Schedule: "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) " +
					"split(k,ko,ki,8) reorder(io,jo,ko,ii,ji,ki) communicate(jo,D) communicate(ko,A,B)"},
				{Stmt: "E(i,l) = D(i,j) * C(j,l)", Schedule: "divide(i,io,ii,4) divide(l,lo,li,4) reorder(io,lo,ii,li) distribute(io,lo) " +
					"split(j,jo,ji,64) reorder(io,lo,jo,ii,li,ji) communicate(lo,E) communicate(jo,D,C)"},
			},
		},
		batch:   4,
		nclient: 1,
	}
}

func (w *httpWorkload) isProgram() bool { return len(w.req.Stmts) > 0 }

func (w *httpWorkload) instances() int { return max(w.batch, 1) }

// programSpec parses the multi-statement request with the reference package.
func (w *httpWorkload) programSpec() (*program.Program, error) {
	stmts := make([]program.Statement, len(w.req.Stmts))
	for i, s := range w.req.Stmts {
		stmts[i] = program.Statement{Stmt: s.Stmt, Formats: s.Formats, Schedule: s.Schedule}
	}
	return program.Parse(stmts, w.req.Shapes)
}

// prepare draws every input from the seed (tensor k of instance i is
// FillRandom(seed + k + 16 i)) and computes each instance's reference output
// with the sequential interpreter: ir.Evaluate, or program.Evaluate for the
// chain. The program under test never sees the seed, only these tensors.
func (w *httpWorkload) prepare(seed int64) error {
	var (
		stmt *ir.Assignment
		prog *program.Program
		err  error
	)
	if w.isProgram() {
		if prog, err = w.programSpec(); err != nil {
			return err
		}
		w.leaves = prog.Inputs()
	} else {
		if stmt, err = ir.Parse(w.req.Stmt); err != nil {
			return err
		}
		w.leaves = stmt.TensorNames()[1:] // every tensor but the output
	}
	w.req.Inputs = map[string]string{}
	for _, name := range w.leaves {
		w.req.Inputs[name] = wire.FillWire
	}
	if w.batch > 0 {
		w.req.Batch = &w.batch
	}
	for i := 0; i < w.instances(); i++ {
		in := map[string]*tensor.Dense{}
		for k, name := range w.leaves {
			t := tensor.New(name, w.req.Shapes[name]...)
			t.FillRandom(seed + int64(k) + 16*int64(i))
			in[name] = t
		}
		var want *tensor.Dense
		if prog != nil {
			outs, err := program.Evaluate(prog, in)
			if err != nil {
				return err
			}
			want = outs[prog.Output()]
		} else if want, err = ir.Evaluate(stmt, in); err != nil {
			return err
		}
		w.data = append(w.data, in)
		w.oracle = append(w.oracle, want)
	}
	return nil
}

func (w *httpWorkload) distalRequest() distal.Request {
	req := distal.Request{Stmt: w.req.Stmt, Shapes: w.req.Shapes, Formats: w.req.Formats, Schedule: w.req.Schedule}
	for _, s := range w.req.Stmts {
		req.Stmts = append(req.Stmts, distal.Statement{Stmt: s.Stmt, Formats: s.Formats, Schedule: s.Schedule})
	}
	return req
}

// setup builds the session, the server and the client, sends the first
// request (the cold compile of every plan the workload uses) and the
// warm-ups. The first response is checked against the oracle and becomes the
// reference every later response must equal bit for bit.
func (w *httpWorkload) setup(warmups int) (instance, error) {
	sess := distal.NewSession(distal.NewMachine(distal.CPU, w.grid...))
	ts := httptest.NewServer(serve.New(sess, serve.Config{}))
	inst := &httpInstance{
		w: w, sess: sess, ts: ts,
		client: &wire.Client{BaseURL: ts.URL, HTTP: ts.Client()},
	}
	outs, err := inst.send()
	if err != nil {
		inst.close()
		return nil, err
	}
	for i, out := range outs {
		if !out.EqualWithin(w.oracle[i], 1e-9) {
			inst.close()
			return nil, fmt.Errorf("instance %d differs from the sequential reference by %g", i, out.MaxAbsDiff(w.oracle[i]))
		}
	}
	inst.ref = outs
	for i := range w.data {
		for _, name := range w.leaves {
			inst.frames = append(inst.frames, w.data[i][name])
			inst.upBytes += wire.EncodedSize(w.data[i][name])
		}
		inst.downBytes += wire.EncodedSize(outs[i])
	}
	for i := 0; i < warmups; i++ {
		if _, err := inst.op(opCtx{}); err != nil {
			inst.close()
			return nil, err
		}
	}
	return inst, nil
}

type httpInstance struct {
	w      *httpWorkload
	sess   *distal.Session
	ts     *httptest.Server
	client *wire.Client
	ref    []*tensor.Dense // per instance: the first response, oracle-checked

	// What one request moves: the input frames in wire order and the encoded
	// sizes up and down.
	frames             []*tensor.Dense
	upBytes, downBytes int64

	mu    sync.Mutex // guards bufs, parts and flops: clients replay concurrently
	bufs  [][2]*bytes.Buffer
	parts []replayParts
	flops float64 // Result.Flops of one request, all instances
}

func (h *httpInstance) clients() int { return h.w.nclient }
func (h *httpInstance) cycle() int   { return 1 }
func (h *httpInstance) close()       { h.ts.Close() }

// send is one round trip: frame the inputs, POST, decode the streamed output.
func (h *httpInstance) send() ([]*tensor.Dense, error) {
	ctx := context.Background()
	if h.w.batch == 0 {
		out, _, err := h.client.Run(ctx, h.w.req, h.w.data[0])
		return []*tensor.Dense{out}, err
	}
	outcome, err := h.client.RunBatch(ctx, h.w.req, h.w.data)
	if err != nil {
		return nil, err
	}
	for _, e := range outcome.Errs {
		if e != nil {
			return nil, e
		}
	}
	return outcome.Outputs, nil
}

func (h *httpInstance) op(c opCtx) (time.Duration, error) {
	var outs []*tensor.Dense
	t0 := time.Now()
	err := c.span("http.run", func() (err error) { outs, err = h.send(); return })
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if err := h.verify(outs); err != nil {
		return lat, err
	}
	if c.rec != nil {
		return lat, h.replay(c, ms(lat))
	}
	return lat, nil
}

// verify demands byte-identical outputs from op to op.
func (h *httpInstance) verify(outs []*tensor.Dense) error {
	if len(outs) != len(h.ref) {
		return fmt.Errorf("%d outputs, want %d", len(outs), len(h.ref))
	}
	for i, out := range outs {
		if out == nil || !slices.Equal(out.Shape(), h.ref[i].Shape()) || !slices.Equal(out.Data(), h.ref[i].Data()) {
			return fmt.Errorf("instance %d: output is not bit-identical to the first response", i)
		}
	}
	return nil
}

// counts reads the server's own request and failure counters.
func (h *httpInstance) counts() (requests, failures int64, err error) {
	resp, err := h.ts.Client().Get(h.ts.URL + "/v1/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	return st.Requests, st.Failures, nil
}

// bound is the surface Plan.BindBatch and ProgramPlan.BindBatch share; the
// server runs every request, batched or not, through one of them.
type bound interface {
	Run(ctx context.Context, opts ...distal.ExecOption) ([]*distal.Result, error)
	Output(i int) *distal.Tensor
	Len() int
}

// resolved is a compiled request as the server's handler sees it.
type resolved struct {
	names    []string // tensors to materialize per instance
	bind     func(insts [][]*distal.Tensor) bound
	simulate func(ctx context.Context) (*distal.Result, error)
	reparts  int
}

// resolve compiles the workload's request on sess the way handleRun does.
func (h *httpInstance) resolve(ctx context.Context, sess *distal.Session) (*resolved, error) {
	req := h.w.distalRequest()
	if h.w.isProgram() {
		pp, err := sess.CompileProgram(ctx, req)
		if err != nil {
			return nil, err
		}
		return &resolved{
			names:    pp.Inputs(),
			bind:     func(insts [][]*distal.Tensor) bound { return pp.BindBatch(insts...) },
			simulate: func(ctx context.Context) (*distal.Result, error) { return pp.Simulate(ctx) },
			reparts:  pp.Repartitions(),
		}, nil
	}
	plan, err := sess.Compile(ctx, req)
	if err != nil {
		return nil, err
	}
	return &resolved{
		names:    plan.Tensors(),
		bind:     func(insts [][]*distal.Tensor) bound { return plan.BindBatch(insts...) },
		simulate: func(ctx context.Context) (*distal.Result, error) { return plan.Simulate(ctx) },
	}, nil
}

// binds materializes n instances' tensors for r: leaf inputs from decoded (or
// the prepared data), everything else freshly zeroed, as the server does per
// request.
func (h *httpInstance) binds(r *resolved, n int, decoded []map[string]*tensor.Dense) [][]*distal.Tensor {
	if decoded == nil {
		decoded = h.w.data
	}
	insts := make([][]*distal.Tensor, n)
	for i := range insts {
		for _, name := range r.names {
			d := decoded[i][name]
			if d == nil {
				d = tensor.New(name, h.w.req.Shapes[name]...)
			}
			insts[i] = append(insts[i], &distal.Tensor{Name: name, Shape: d.Shape(), Data: d})
		}
	}
	return insts
}

// run executes r on n instances in-process and returns the outputs.
func (h *httpInstance) run(ctx context.Context, r *resolved, n int, decoded []map[string]*tensor.Dense, opts ...distal.ExecOption) ([]*tensor.Dense, *distal.Result, error) {
	b := r.bind(h.binds(r, n, decoded))
	results, err := b.Run(ctx, opts...)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]*tensor.Dense, b.Len())
	for i := range outs {
		outs[i] = b.Output(i).Data
	}
	return outs, results[0], nil
}

// replayBufs returns client's two pre-sized frame buffers, emptied: the
// request frames go up through one and the response frames down through the
// other. They are kept per client so that a replay allocates what a served
// request allocates — the decoded tensors — and no more.
func (h *httpInstance) replayBufs(client int) (up, down *bytes.Buffer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bufs == nil {
		h.bufs = make([][2]*bytes.Buffer, h.w.nclient)
		for i := range h.bufs {
			h.bufs[i] = [2]*bytes.Buffer{
				bytes.NewBuffer(make([]byte, 0, h.upBytes)),
				bytes.NewBuffer(make([]byte, 0, h.downBytes)),
			}
		}
	}
	b := h.bufs[client]
	b[0].Reset()
	b[1].Reset()
	return b[0], b[1]
}

// replayParts is one layer replay's timings in milliseconds; encode and
// decode each sum the inputs' and the output's span, so that their medians
// are medians of per-request sums.
type replayParts struct{ http, enc, dec, hit, run float64 }

// replay repeats the operation just sent over HTTP in-process, one span per
// call into a layer: encode the input frames into a pre-sized buffer, decode
// them, Session.Compile (a hit), bind and run, encode the output, decode it.
// It runs right after its operation, on the same goroutine, so both see the
// same machine; the output must equal the server's bit for bit, or the
// replay is timing something else.
func (h *httpInstance) replay(c opCtx, httpMS float64) error {
	ctx := context.Background()
	w := h.w
	n := w.instances()
	root := c.rec.begin("replay", c.id, c.parent)
	defer c.rec.end(root)
	span := func(name string, f func() error) (float64, error) {
		t0 := time.Now()
		err := c.rec.call(name, c.id, root, f)
		return ms(time.Since(t0)), err
	}
	up, down := h.replayBufs(c.client)
	var (
		decoded = make([]map[string]*tensor.Dense, n)
		back    = make([]*tensor.Dense, n)
		res     *resolved
		outs    []*tensor.Dense
		flops   float64
		p       = replayParts{http: httpMS}
	)
	encIn, err := span("wire.encode", func() error { return wire.EncodeFrames(up, h.frames...) })
	if err != nil {
		return err
	}
	decIn, err := span("wire.decode", func() error {
		r := bytes.NewReader(up.Bytes())
		for i := 0; i < n; i++ {
			decoded[i] = map[string]*tensor.Dense{}
			for _, name := range w.leaves {
				t, err := wire.DecodeLimit(r, w.data[i][name].Size())
				if err != nil {
					return err
				}
				decoded[i][name] = t.Rename(name)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if p.hit, err = span("session.hit", func() (err error) { res, err = h.resolve(ctx, h.sess); return }); err != nil {
		return err
	}
	if p.run, err = span("legion.real_run", func() (err error) {
		var r *distal.Result
		if outs, r, err = h.run(ctx, res, n, decoded); err == nil {
			flops = r.Flops * float64(n)
		}
		return
	}); err != nil {
		return err
	}
	encOut, err := span("wire.encode", func() error { return wire.EncodeFrames(down, outs...) })
	if err != nil {
		return err
	}
	decOut, err := span("wire.decode", func() error {
		r := bytes.NewReader(down.Bytes())
		for i := range back {
			if back[i], err = wire.DecodeLimit(r, h.ref[i].Size()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := h.verify(back); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	p.enc, p.dec = encIn+encOut, decIn+decOut
	h.mu.Lock()
	h.parts = append(h.parts, p)
	h.flops = flops
	h.mu.Unlock()
	return nil
}

// layers reduces the traced pass's replays to per-layer metrics, then takes
// the micro-measurements the replay does not cover, each within an equal
// share of the budget.
func (h *httpInstance) layers(lc *layerCtx) error {
	if len(h.parts) == 0 {
		return fmt.Errorf("the traced pass recorded no replay")
	}
	res, err := h.resolve(context.Background(), h.sess)
	if err != nil {
		return err
	}
	steps := []func(*layerCtx, *resolved, time.Duration) error{
		h.replayLayers, h.runLayers, h.sessionLayers, h.textLayers, h.executeLayers, h.obsLayers,
	}
	for _, step := range steps {
		if err := step(lc, res, lc.budget/time.Duration(len(steps))); err != nil {
			return err
		}
	}
	return nil
}

// replayLayers: wire, the in-process run and what the server adds, from the
// replays interleaved with the traced pass's requests.
func (h *httpInstance) replayLayers(lc *layerCtx, res *resolved, _ time.Duration) error {
	col := func(f func(replayParts) float64) float64 {
		xs := make([]float64, len(h.parts))
		for i, p := range h.parts {
			xs[i] = f(p)
		}
		return median(xs)
	}
	enc, dec := col(func(p replayParts) float64 { return p.enc }), col(func(p replayParts) float64 { return p.dec })
	hit, run := col(func(p replayParts) float64 { return p.hit }), col(func(p replayParts) float64 { return p.run })
	lc.out["wire.encode_ms"] = enc
	lc.out["wire.decode_ms"] = dec
	lc.out["wire.bytes_up"] = float64(h.upBytes)
	lc.out["wire.bytes_down"] = float64(h.downBytes)
	lc.out["wire.decode_mb_s"] = ratio(float64(h.upBytes+h.downBytes)/1e6, dec/1e3)
	// What HTTP, JSON, admission and the loopback socket add: the traced
	// pass's own round trips against the replays interleaved with them.
	lc.out["serve.overhead_ms"] = col(func(p replayParts) float64 { return p.http }) - (enc + dec + hit + run)
	if h.w.isProgram() {
		lc.out["program.run_ms"] = run
		lc.out["program.repartitions"] = float64(res.reparts)
	} else {
		lc.out["legion.real_run_ms"] = run
		lc.out["legion.real_gflops"] = ratio(h.flops/1e9, run/1e3)
	}
	return nil
}

// runLayers: the accounting walk alone, the drain it leaves, the batch
// against single runs, the worker pool against one worker, and allocations.
func (h *httpInstance) runLayers(lc *layerCtx, res *resolved, budget time.Duration) error {
	ctx := context.Background()
	n := h.w.instances()
	sim, err := timed(budget/4, 5, 400, func() error { _, err := res.simulate(ctx); return err })
	if err != nil {
		return err
	}
	lc.out["legion.sim_walk_ms"] = median(sim)
	if h.w.isProgram() {
		one, err := timed(budget/4, 5, 400, func() error { _, _, err := h.run(ctx, res, 1, nil); return err })
		if err != nil {
			return err
		}
		lc.out["program.single_run_ms"] = median(one)
		lc.out["program.batch_ratio"] = ratio(lc.out["program.run_ms"], float64(n)*median(one))
	} else {
		lc.out["legion.drain_ms"] = lc.out["legion.real_run_ms"] - median(sim)
	}

	// Kernel slow or pool starved: the same run with one real worker against
	// the default pool, interleaved so both sides see the same machine.
	var serial, pooled []float64
	_, err = timed(budget/2, 3, 200, func() error {
		t0 := time.Now()
		if _, _, err := h.run(ctx, res, n, nil, distal.WithRealWorkers(1)); err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := h.run(ctx, res, n, nil); err != nil {
			return err
		}
		serial, pooled = append(serial, ms(t1.Sub(t0))), append(pooled, ms(time.Since(t1)))
		return nil
	})
	if err != nil {
		return err
	}
	lc.out["legion.drain_speedup"] = ratio(median(serial), median(pooled))

	const allocRuns = 8
	m0 := mallocs()
	for i := 0; i < allocRuns; i++ {
		if _, _, err := h.run(ctx, res, n, nil); err != nil {
			return err
		}
	}
	lc.out["legion.real_allocs"] = float64(mallocs()-m0) / allocRuns
	return nil
}

// sessionLayers: a memo hit alone, the same from every client at once (the
// single s.mu), and a miss on a fresh session.
func (h *httpInstance) sessionLayers(lc *layerCtx, _ *resolved, budget time.Duration) error {
	ctx := context.Background()
	hit := func() error { _, err := h.resolve(ctx, h.sess); return err }
	before := h.sess.CacheStats()
	alone, err := timed(budget/3, 200, 20000, hit)
	if err != nil {
		return err
	}
	after := h.sess.CacheStats()
	lc.out["session.hit_us"] = 1000 * median(alone)
	lc.out["session.cache_hits"] = ratio(float64(after.Hits-before.Hits), float64(len(alone)))
	lc.out["session.cache_misses"] = ratio(float64(after.Misses-before.Misses), float64(len(alone)))

	var (
		mu        sync.Mutex
		contended []float64
		firstErr  error
		wg        sync.WaitGroup
	)
	for g := 0; g < min(runtime.NumCPU(), 2); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs, err := timed(budget/3, 200, 20000, hit)
			mu.Lock()
			defer mu.Unlock()
			contended = append(contended, xs...)
			if firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	lc.out["session.hit_contended_us"] = 1000 * median(contended)

	miss, err := timed(budget/3, 3, 100, func() error {
		_, err := h.resolve(ctx, distal.NewSession(distal.NewMachine(distal.CPU, h.w.grid...)))
		return err
	})
	if err != nil {
		return err
	}
	lc.out["session.miss_ms"] = median(miss)
	return nil
}

// textLayers: the request's text — statement parse plus schedule parse and
// application, for every statement.
func (h *httpInstance) textLayers(lc *layerCtx, _ *resolved, budget time.Duration) error {
	specs := h.w.req.Stmts
	if !h.w.isProgram() {
		specs = []wire.StmtSpec{{Stmt: h.w.req.Stmt, Schedule: h.w.req.Schedule}}
	}
	parse, err := timed(budget, 50, 5000, func() error {
		for _, s := range specs {
			stmt, err := ir.Parse(s.Stmt)
			if err != nil {
				return err
			}
			if _, err := schedule.FromText(stmt, s.Schedule); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.out["schedule.parse_us"] = 1000 * median(parse)
	return nil
}

// executeLayers: POST /v1/execute of the same cached request — HTTP + JSON +
// admission + the accounting walk, no frames and no kernels. The endpoint
// takes single statements only.
func (h *httpInstance) executeLayers(lc *layerCtx, _ *resolved, budget time.Duration) error {
	if h.w.isProgram() {
		return nil
	}
	w := h.w
	body, err := json.Marshal(serve.ExecuteRequest{Stmt: w.req.Stmt, Shapes: w.req.Shapes, Formats: w.req.Formats, Schedule: w.req.Schedule})
	if err != nil {
		return err
	}
	exec, err := timed(budget, 5, 2000, func() error {
		resp, err := h.ts.Client().Post(h.ts.URL+"/v1/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/v1/execute answered %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.out["serve.execute_ms"] = median(exec)
	return nil
}

// obsLayers: the in-process run under a live obs trace against the kill
// switch, in interleaved pairs; the median of the per-pair differences.
func (h *httpInstance) obsLayers(lc *layerCtx, res *resolved, budget time.Duration) error {
	ctx := context.Background()
	n := h.w.instances()
	var deltas, offs []float64
	_, err := timed(budget, 5, 400, func() error {
		obs.SetDisabled(true)
		t0 := time.Now()
		_, _, err := h.run(ctx, res, n, nil)
		off := ms(time.Since(t0))
		obs.SetDisabled(false)
		if err != nil {
			return err
		}
		tr, tctx := obs.NewTrace(ctx, obs.NewRequestID(), "bench")
		t0 = time.Now()
		_, _, err = h.run(tctx, res, n, nil)
		tr.Finish()
		deltas, offs = append(deltas, ms(time.Since(t0))-off), append(offs, off)
		return err
	})
	if err != nil {
		return err
	}
	lc.out["obs.overhead_pct"] = 100 * ratio(median(deltas), median(offs))
	return nil
}
