// Command distal-tune searches the schedule space of one workload for the
// schedule with the lowest simulated makespan and prints the leaderboard.
// The winner is printed as schedule command text, ready to paste into a
// distal.Request, a distal-serve call, or the -sched flag of cmd/distal.
//
// Usage:
//
//	distal-tune -stmt "A(i,j) = B(i,k) * C(k,j)" -n 1024 -grid 4x4
//	distal-tune -stmt "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)" -grid 2x2x2 \
//	    -shapes "A=64x32,B=64x64x64,C=64x32,D=64x32" \
//	    -formats "A=ab->a00,B=abc->abc,C=ab->*a*,D=ab->**a"
//	distal-tune ... -budget 200 -beam 6 -seed 7     # bigger search
//	distal-tune ... -schedule "divide(...) ..."     # seed a hand schedule
//
// The AutoSchedule heuristic always competes, so the winner's makespan is
// never worse than the built-in baseline; the summary line reports the
// speedup over it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"distal"
	"distal/internal/request"
	"distal/internal/serve"
)

func main() {
	stmt := flag.String("stmt", "", "tensor index notation statement, e.g. \"A(i,j) = B(i,k) * C(k,j)\"")
	shapes := flag.String("shapes", "", "per-tensor shapes, e.g. \"A=1024x1024,B=1024x1024,C=1024x1024\"")
	n := flag.Int("n", 0, "shorthand: every tensor dimension gets extent n (ignored when -shapes is set)")
	formats := flag.String("formats", "", "per-tensor distribution notation, e.g. \"A=xy->xy,B=xy->**\" (default: canonical tiling)")
	schedule := flag.String("schedule", "", "hand-written schedule entered as a seed candidate")
	grid := flag.String("grid", "4x4", "machine grid, e.g. 16, 4x4, 2x2x2")
	kind := flag.String("kind", "cpu", "processor kind: cpu or gpu")
	ppn := flag.Int("ppn", 0, "processors per node (0 = every processor on its own node)")
	budget := flag.Int("budget", 64, "max candidates evaluated")
	beam := flag.Int("beam", 4, "tilings refined with pipelines in the second stage")
	seed := flag.Int64("seed", 0, "sampling seed (fixed seed+budget => identical leaderboard)")
	workers := flag.Int("workers", 0, "concurrent evaluations (0 = min(GOMAXPROCS, 8); does not affect the result)")
	top := flag.Int("top", 10, "leaderboard length")
	timeout := flag.Duration("timeout", 2*time.Minute, "search deadline")
	jsonOut := flag.Bool("json", false, "print the result as JSON instead of a table")
	flag.Parse()

	if *stmt == "" {
		fmt.Fprintln(os.Stderr, "distal-tune: -stmt is required")
		flag.Usage()
		os.Exit(2)
	}
	req := distal.Request{Stmt: *stmt, Schedule: *schedule}
	var err error
	if req.Shapes, err = request.ParseShapes([]string{*stmt}, *shapes, *n); err != nil {
		log.Fatalf("distal-tune: %v", err)
	}
	if req.Formats, err = request.ParseFormats(*formats); err != nil {
		log.Fatalf("distal-tune: %v", err)
	}
	dims, err := request.ParseGrid(*grid)
	if err != nil {
		log.Fatalf("distal-tune: %v", err)
	}
	pk, params := distal.CPU, distal.LassenCPU()
	if strings.EqualFold(*kind, "gpu") {
		pk, params = distal.GPU, distal.LassenGPU()
	} else if !strings.EqualFold(*kind, "cpu") {
		log.Fatalf("distal-tune: unknown -kind %q (cpu or gpu)", *kind)
	}
	m := distal.NewMachine(pk, dims...)
	if *ppn > 0 {
		m = m.WithProcsPerNode(*ppn)
	}
	sess := distal.NewSession(m, distal.WithParams(params))

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := sess.Tune(ctx, req, distal.TuneOptions{
		Budget: *budget, Beam: *beam, Seed: *seed, Workers: *workers, KeepTop: *top,
	})
	if err != nil {
		log.Fatalf("distal-tune: %v", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(serve.NewTuneResponse(res)); err != nil {
			log.Fatalf("distal-tune: %v", err)
		}
		return
	}
	fmt.Println(res.String())
	fmt.Println()
	fmt.Printf("%-4s %-12s %-10s %-8s %s\n", "#", "makespan", "GFLOP/s", "copies", "schedule")
	for i, c := range res.Leaderboard {
		state := ""
		if c.OOM {
			state = " OOM"
		}
		fmt.Printf("%-4d %-12s %-10.1f %-8d %s%s\n",
			i+1, fmt.Sprintf("%.6fs", c.MakespanSec), c.GFlops, c.Copies, c.Schedule, state)
	}
}
