// Command distal-serve exposes a DISTAL session as an HTTP/JSON service:
// compile-once execute-many over the plan cache, under real concurrency.
//
// Usage:
//
//	distal-serve -addr :8080 -grid 4x4              # 16 CPU sockets
//	distal-serve -grid 2x2x2 -kind gpu -ppn 4       # 8 GPUs, 4 per node
//	distal-serve -workers 8 -timeout 10s            # pool + default deadline
//
// Endpoints (see internal/serve):
//
//	POST /v1/execute  {"stmt": "A(i,j) = B(i,k) * C(k,j)", "shapes": {...},
//	                   "formats": {...}, "schedule": "..."}
//	POST /v1/batch    {"requests": [...]}
//	POST /v1/run      real execution: the request plus input tensors as
//	                  binary wire frames (or server-side fills); the output
//	                  tensor streams back (see internal/wire, cmd/distal-run)
//	GET  /v1/stats    cache and server counters
//	GET  /metrics     the same counters in Prometheus text format
//	GET  /v1/trace/{id}  one recent request's spans as Chrome trace_event JSON
//
// Request bodies are capped: -max-body for the JSON endpoints, -max-run-body
// for /v1/run (which carries tensor payloads), and -max-batch for the
// instance count a batched /v1/run may declare.
//
// Observability switches: -log-format json emits one JSON access-log line
// per request to stderr, -trace-ring sizes the GET /v1/trace/{id} ring, and
// -debug-addr serves net/http/pprof on a second, private listener.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distal"
	"distal/internal/request"
	"distal/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	grid := flag.String("grid", "4x4", "machine grid, e.g. 16, 4x4, 2x2x2")
	kind := flag.String("kind", "cpu", "processor kind: cpu or gpu")
	ppn := flag.Int("ppn", 0, "processors per node (0 = every processor on its own node)")
	gpuParams := flag.Bool("gpu-cost", false, "use the Lassen GPU cost model (default follows -kind)")
	workers := flag.Int("workers", 0, "max concurrent executions (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	cache := flag.Int("cache", distal.DefaultPlanCacheSize, "plan cache capacity (0 disables)")
	maxBody := flag.Int64("max-body", 4<<20, "largest accepted body on the JSON endpoints, in bytes")
	maxRunBody := flag.Int64("max-run-body", 256<<20, "largest accepted /v1/run body (JSON section plus tensor frames), in bytes")
	maxBatch := flag.Int("max-batch", 64, "largest accepted /v1/run batch instance count")
	logFormat := flag.String("log-format", "", "access log format: \"json\" emits one JSON line per request to stderr (default: no access log)")
	traceRing := flag.Int("trace-ring", 64, "recent request traces kept for GET /v1/trace/{id}")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this second listener, e.g. localhost:6060 (default: off)")
	flag.Parse()
	if *logFormat != "" && *logFormat != "json" {
		log.Fatalf("distal-serve: unknown -log-format %q (\"json\" or empty)", *logFormat)
	}

	dims, err := request.ParseGrid(*grid)
	if err != nil {
		log.Fatalf("distal-serve: %v", err)
	}
	if len(dims) > 3 {
		log.Fatalf("distal-serve: bad grid %q: 1 to 3 dimensions", *grid)
	}
	pk := distal.CPU
	if strings.EqualFold(*kind, "gpu") {
		pk = distal.GPU
	} else if !strings.EqualFold(*kind, "cpu") {
		log.Fatalf("distal-serve: unknown -kind %q (cpu or gpu)", *kind)
	}
	m := distal.NewMachine(pk, dims...)
	if *ppn > 0 {
		m = m.WithProcsPerNode(*ppn)
	}
	params := distal.LassenCPU()
	if pk == distal.GPU || *gpuParams {
		params = distal.LassenGPU()
	}
	sess := distal.NewSession(m, distal.WithParams(params), distal.WithPlanCacheSize(*cache))
	srv := serve.New(sess, serve.Config{
		Workers: *workers, Timeout: *timeout,
		MaxBody: *maxBody, MaxRunBody: *maxRunBody, MaxRunBatch: *maxBatch,
		TraceRing: *traceRing, LogJSON: *logFormat == "json",
	})

	if *debugAddr != "" {
		// The pprof handlers live on http.DefaultServeMux (registered by the
		// blank net/http/pprof import) and only ever bind when asked: keep
		// the profiling surface off the service port.
		go func() {
			log.Printf("distal-serve: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("distal-serve: debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("distal-serve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("distal-serve: shutdown: %v", err)
		}
	}()
	log.Printf("distal-serve: %d processors (%s), %s on %s", m.Processors(), *grid, *kind, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("distal-serve: %v", err)
	}
	<-done
}
