// Command distal-run executes one workload on a running distal-serve over
// the binary wire protocol: it POSTs the data-free request plus the input
// tensors (from .dt files, or filled server-side) to /v1/run and streams the
// computed output tensor back.
//
// Usage:
//
//	distal-run -addr http://localhost:8080 \
//	    -stmt "A(i,j) = B(i,k) * C(k,j)" -n 1024 \
//	    -sched "divide(i,io,ii,4) ..." \
//	    -in B=rand:1 -in C=ones -out A.dt
//	distal-run ... -in B=b.dt -in C=c.dt        # ship local tensors
//	distal-run ... -verify                      # check numerics client-side
//	distal-run ... -batch 8 -in B=rand:1 ...    # 8 instances, one plan walk
//
// Each -in names an input tensor and gives either a fill directive executed
// server-side (zero, ones, rand:<seed>) or a path to a .dt tensor file
// (written by -out, or internal/wire.WriteFile) streamed to the server.
// Unnamed inputs default to zero. With -verify, the client reconstructs the
// fills locally, evaluates the statement with the reference interpreter, and
// exits nonzero unless the streamed result matches.
//
// -batch N executes N problem instances through the same cached plan in a
// single launch walk server-side. rand fills draw each instance from
// seed+instance; .dt file inputs ship the same tensor to every instance.
// -out writes the N output frames concatenated into one file, and -verify
// checks every instance against the reference interpreter.
//
// Repeating -stmt sends a multi-statement program executed server-side as
// one plan DAG, with the intermediates kept distributed between stages:
//
//	distal-run -stmt "D(i,j) = A(i,k) * B(k,j)" \
//	           -stmt "E(i,j) = D(i,k) * C(k,j)" -n 256 \
//	           -in A=a.dt -in B=rand:1 -in C=rand:2 -verify
//
// Each -sched/-formats flag applies to the -stmt at the same position (give
// none, or one per statement); -in and -shapes name leaf inputs only —
// intermediates are allocated server-side and never cross the wire. The
// response streams the last statement's output, and -verify evaluates the
// whole chain locally.
//
// -v prints the remaining Distal-* header metrics — bytes moved, peak
// memory, the request id — plus one row per execution stage on
// multi-statement runs. -trace-out FILE fetches the run's span tree from
// the server's GET /v1/trace/{id} and writes Chrome trace_event JSON
// (open in chrome://tracing or Perfetto).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"distal/internal/program"
	"distal/internal/request"
	"distal/internal/tensor"
	"distal/internal/wire"
)

// inFlag collects repeated -in NAME=SOURCE arguments.
type inFlag []string

func (f *inFlag) String() string     { return strings.Join(*f, ",") }
func (f *inFlag) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	addr := flag.String("addr", "http://localhost:8080", "distal-serve base URL")
	var stmts inFlag
	flag.Var(&stmts, "stmt", "tensor index notation statement, e.g. \"A(i,j) = B(i,k) * C(k,j)\"; repeat to send a multi-statement program executed as one plan DAG")
	shapes := flag.String("shapes", "", "per-tensor shapes, e.g. \"A=1024x1024,B=1024x1024,C=1024x1024\" (multi-statement: leaf inputs only)")
	n := flag.Int("n", 0, "shorthand: every tensor dimension gets extent n (ignored when -shapes is set)")
	var formats inFlag
	flag.Var(&formats, "formats", "per-tensor distribution notation, e.g. \"A=xy->xy,B=xy->**\" (default: canonical tiling); repeatable, one per -stmt in order")
	var scheds inFlag
	flag.Var(&scheds, "sched", "schedule command text (default: the server's auto-schedule); repeatable, one per -stmt in order")
	var ins inFlag
	flag.Var(&ins, "in", "input tensor NAME=SOURCE; SOURCE is zero, ones, rand:<seed>, or a .dt file (repeatable)")
	out := flag.String("out", "", "write the output tensor to this .dt file")
	timeout := flag.Duration("timeout", 2*time.Minute, "request deadline")
	verify := flag.Bool("verify", false, "re-evaluate locally with the reference interpreter and compare")
	batch := flag.Int("batch", 0, "execute N problem instances through one cached plan in a single walk (0 = single-instance)")
	verbose := flag.Bool("v", false, "print the full Distal-* header metrics (bytes moved, peak memory, request id, per-stage rows)")
	traceOut := flag.String("trace-out", "", "fetch the run's span tree from GET /v1/trace/{id} and write the Chrome trace_event JSON to this file")
	flag.Parse()

	if len(stmts) == 0 {
		fmt.Fprintln(os.Stderr, "distal-run: -stmt is required")
		flag.Usage()
		os.Exit(2)
	}
	if len(scheds) != 0 && len(scheds) != len(stmts) {
		log.Fatalf("distal-run: %d -sched flags for %d statements (give none, or one per -stmt)", len(scheds), len(stmts))
	}
	if len(formats) != 0 && len(formats) != len(stmts) {
		log.Fatalf("distal-run: %d -formats flags for %d statements (give none, or one per -stmt)", len(formats), len(stmts))
	}
	req := wire.RunRequest{Inputs: map[string]string{}}
	var err error
	if req.Shapes, err = request.ParseShapes(stmts, *shapes, *n); err != nil {
		log.Fatalf("distal-run: %v", err)
	}
	specs := make([]wire.StmtSpec, len(stmts))
	for i, s := range stmts {
		specs[i].Stmt = s
		if len(scheds) == len(stmts) {
			specs[i].Schedule = scheds[i]
		}
		if len(formats) == len(stmts) {
			if specs[i].Formats, err = request.ParseFormats(formats[i]); err != nil {
				log.Fatalf("distal-run: statement %d: %v", i, err)
			}
		}
	}
	if len(specs) == 1 { // the statement form, whose output may be bound too
		req.Stmt, req.Formats, req.Schedule = specs[0].Stmt, specs[0].Formats, specs[0].Schedule
	} else {
		req.Stmts = specs
	}

	// Sort each -in into a server-side fill or a local .dt file to stream.
	data := map[string]*tensor.Dense{}
	for _, ent := range ins {
		name, src, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok {
			log.Fatalf("distal-run: bad -in %q (want NAME=SOURCE)", ent)
		}
		name, src = strings.TrimSpace(name), strings.TrimSpace(src)
		if src == wire.FillWire {
			log.Fatalf("distal-run: -in %s: %q is reserved; give a fill or a .dt path", name, src)
		}
		if wire.ValidFill(src) {
			req.Inputs[name] = src
			continue
		}
		t, err := wire.ReadFile(src, name)
		if err != nil {
			log.Fatalf("distal-run: -in %s: %v", name, err)
		}
		req.Inputs[name] = wire.FillWire
		data[name] = t
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client := &wire.Client{BaseURL: strings.TrimRight(*addr, "/")}
	if *batch > 0 {
		runBatch(ctx, client, req, data, *batch, *out, *verify, *verbose, *traceOut)
		return
	}
	result, stats, err := client.Run(ctx, req, data)
	if err != nil {
		log.Fatalf("distal-run: %v", err)
	}

	fmt.Printf("output=%s shape=%v sum=%.9g\n", stats.Output, result.Shape(), result.Sum())
	fmt.Printf("plan=%s cached=%t time=%.6fs gflops=%.1f copies=%d compile=%.1fms\n",
		stats.PlanKey, stats.Cached, stats.TimeS, stats.GFlops, stats.Copies, stats.CompileMS)
	if *verbose {
		printVerbose(stats)
	}
	if *traceOut != "" {
		if err := fetchTrace(ctx, client, stats.RequestID, *traceOut); err != nil {
			log.Fatalf("distal-run: %v", err)
		}
	}

	if *out != "" {
		if err := wire.WriteFile(*out, result); err != nil {
			log.Fatalf("distal-run: %v", err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, wire.EncodedSize(result))
	}

	if *verify {
		if err := verifyInstance(req, data, result, 0); err != nil {
			log.Fatalf("distal-run: verify: %v", err)
		}
		fmt.Println("verify=ok")
	}
}

// runBatch executes -batch N: the same request over N problem instances in
// one server-side launch walk. File-sourced inputs ship the same tensor to
// every instance; rand fills diverge per instance (seed+i on both ends, so
// -verify can reconstruct each instance exactly). Exits nonzero when any
// instance fails or any verification disagrees.
func runBatch(ctx context.Context, client *wire.Client, req wire.RunRequest, data map[string]*tensor.Dense, n int, out string, verify, verbose bool, traceOut string) {
	req.Batch = &n
	var insts []map[string]*tensor.Dense
	if len(data) > 0 {
		insts = make([]map[string]*tensor.Dense, n)
		for i := range insts {
			insts[i] = data
		}
	}
	outcome, err := client.RunBatch(ctx, req, insts)
	if err != nil {
		log.Fatalf("distal-run: %v", err)
	}
	stats := outcome.Stats
	fmt.Printf("plan=%s cached=%t batch=%d time=%.6fs gflops=%.1f copies=%d compile=%.1fms\n",
		stats.PlanKey, stats.Cached, n, stats.TimeS, stats.GFlops, stats.Copies, stats.CompileMS)
	if verbose {
		printVerbose(&stats)
	}
	if traceOut != "" {
		if err := fetchTrace(ctx, client, stats.RequestID, traceOut); err != nil {
			log.Fatalf("distal-run: %v", err)
		}
	}
	failed := false
	for i := 0; i < n; i++ {
		if err := outcome.Errs[i]; err != nil {
			failed = true
			fmt.Printf("instance %d: error: %v\n", i, err)
			continue
		}
		t := outcome.Outputs[i]
		fmt.Printf("instance %d: output=%s shape=%v sum=%.9g\n", i, stats.Output, t.Shape(), t.Sum())
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatalf("distal-run: %v", err)
		}
		var size int64
		for _, t := range outcome.Outputs {
			if t == nil {
				continue
			}
			if err := wire.Encode(f, t); err != nil {
				f.Close()
				log.Fatalf("distal-run: %v", err)
			}
			size += wire.EncodedSize(t)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("distal-run: %v", err)
		}
		fmt.Printf("wrote %s (%d bytes, surviving instances concatenated)\n", out, size)
	}

	if verify {
		for i := 0; i < n; i++ {
			if outcome.Outputs[i] == nil {
				continue
			}
			if err := verifyInstance(req, data, outcome.Outputs[i], i); err != nil {
				log.Fatalf("distal-run: verify instance %d: %v", i, err)
			}
		}
		fmt.Println("verify=ok")
	}
	if failed {
		os.Exit(1)
	}
}

// printVerbose prints the rest of the Distal-* header metrics: the data-
// movement and memory numbers, the request id (the key of the server's
// GET /v1/trace/{id} export), and — on multi-statement runs — one row per
// execution stage from the Distal-Stages header.
func printVerbose(stats *wire.RunStats) {
	fmt.Printf("request=%s intra_bytes=%d inter_bytes=%d peak_mem_bytes=%d\n",
		stats.RequestID, stats.IntraBytes, stats.InterBytes, stats.PeakMemBytes)
	for i, st := range stats.Stages {
		kind := "stage"
		if st.Repart {
			kind = "repart"
		}
		fmt.Printf("%s %d: output=%s plan=%s cached=%t launches=%d points=%d\n",
			kind, i, st.Output, st.PlanKey, st.Cached, st.Launches, st.Points)
	}
}

// fetchTrace downloads the run's span tree — the server keeps a bounded ring
// of recent traces keyed by request id — and writes the Chrome trace_event
// JSON to path (open it in chrome://tracing or Perfetto).
func fetchTrace(ctx context.Context, client *wire.Client, id, path string) error {
	if id == "" {
		return fmt.Errorf("-trace-out: the response carried no %s header (is the server older than the trace export?)", wire.HeaderRequestID)
	}
	url := client.BaseURL + "/v1/trace/" + id
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	hc := client.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("-trace-out: GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes of trace_event JSON)\n", path, n)
	return nil
}

// verifyInstance reconstructs instance inst's bound tensors locally
// (streamed tensors are already in hand; fills are deterministic on both
// ends, with the per-instance seed offset the server applied), evaluates the
// request — one statement or a whole chain — with the reference
// interpreter, and compares numerics.
func verifyInstance(req wire.RunRequest, data map[string]*tensor.Dense, got *tensor.Dense, inst int) error {
	p, err := program.ParseRequest(program.Statement{Stmt: req.Stmt, Formats: req.Formats, Schedule: req.Schedule}, req.Stmts, req.Shapes)
	if err != nil {
		return err
	}
	inputs := map[string]*tensor.Dense{}
	for _, name := range p.Inputs() {
		if t, ok := data[name]; ok {
			inputs[name] = t
			continue
		}
		t := tensor.New(name, req.Shapes[name]...)
		if err := wire.ApplyFillInstance(t, req.Inputs[name], inst); err != nil {
			return err
		}
		inputs[name] = t
	}
	outs, err := program.Evaluate(p, inputs)
	if err != nil {
		return err
	}
	want := outs[p.Output()]
	if want.Rank() == 0 {
		// A scalar output travels with shape (1); the interpreter returns
		// it at rank 0.
		scalar := tensor.New(want.Name(), 1)
		scalar.Data()[0] = want.At()
		want = scalar
	}
	if !got.EqualWithin(want, 1e-9) {
		return fmt.Errorf("streamed result disagrees with the reference interpreter: max |diff| = %g", got.MaxAbsDiff(want))
	}
	return nil
}
