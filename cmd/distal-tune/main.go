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
		if err := enc.Encode(jsonResult(res)); err != nil {
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

// tuneOutput is the -json schema, field-compatible with the /v1/tune wire
// format (see internal/serve), so scripts can consume either surface.
type tuneOutput struct {
	Winner      tuneEntry   `json:"winner"`
	Baseline    *tuneEntry  `json:"baseline,omitempty"`
	SpeedupX    float64     `json:"speedup_x,omitempty"`
	Leaderboard []tuneEntry `json:"leaderboard"`
	Generated   int         `json:"generated"`
	Illegal     int         `json:"illegal"`
	Deduped     int         `json:"deduped"`
	Evaluated   int         `json:"evaluated"`
	Failed      int         `json:"failed"`
	ElapsedMS   float64     `json:"elapsed_ms"`
}

type tuneEntry struct {
	Schedule     string  `json:"schedule"`
	MakespanSec  float64 `json:"makespan_sec"`
	GFlops       float64 `json:"gflops"`
	Copies       int64   `json:"copies"`
	IntraBytes   int64   `json:"intra_bytes"`
	InterBytes   int64   `json:"inter_bytes"`
	PeakMemBytes int64   `json:"peak_mem_bytes"`
	OOM          bool    `json:"oom,omitempty"`
	PlanKey      string  `json:"plan_key"`
}

func entry(c distal.TunedCandidate) tuneEntry {
	return tuneEntry{
		Schedule:     c.Schedule,
		MakespanSec:  c.MakespanSec,
		GFlops:       c.GFlops,
		Copies:       c.Copies,
		IntraBytes:   c.IntraBytes,
		InterBytes:   c.InterBytes,
		PeakMemBytes: c.PeakMemBytes,
		OOM:          c.OOM,
		PlanKey:      c.PlanKey,
	}
}

func jsonResult(res *distal.TuneResult) tuneOutput {
	out := tuneOutput{
		Winner:    entry(res.Winner),
		SpeedupX:  res.Speedup(),
		Generated: res.Generated,
		Illegal:   res.Illegal,
		Deduped:   res.Deduped,
		Evaluated: res.Evaluated,
		Failed:    res.Failed,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	if res.Baseline != nil {
		e := entry(*res.Baseline)
		out.Baseline = &e
	}
	for _, c := range res.Leaderboard {
		out.Leaderboard = append(out.Leaderboard, entry(c))
	}
	return out
}
