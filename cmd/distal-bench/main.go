// Command distal-bench regenerates the DISTAL paper's evaluation figures on
// the simulated Lassen machine and prints them as text tables.
//
// Usage:
//
//	distal-bench -exp all           # every figure (default)
//	distal-bench -exp fig15a        # CPU matmul weak scaling
//	distal-bench -exp fig15b       	# GPU matmul weak scaling
//	distal-bench -exp fig16         # all four higher-order kernels, CPU+GPU
//	distal-bench -exp fig9          # algorithm verification table
//	distal-bench -exp summary       # headline speedups (§1/§7)
//	distal-bench -exp plancache     # session plan-cache cold/warm comparison
//	distal-bench -exp metrics       # machine-readable workload metrics table
//	distal-bench -exp tune          # auto-tune the five example workloads and
//	                                # verify the winner matches or beats
//	                                # AutoSchedule (see -tune-budget)
//	distal-bench -nodes 256         # maximum node count (power of two)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"distal"
	"distal/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig15a, fig15b, fig16, fig9, summary, plancache, metrics, tune")
	nodes := flag.Int("nodes", 256, "maximum node count (power of two)")
	tuneBudget := flag.Int("tune-budget", 48, "candidate budget per workload for -exp tune")
	tuneSeed := flag.Int64("tune-seed", 0, "sampling seed for -exp tune")
	flag.Parse()

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "distal-bench:", err)
			os.Exit(1)
		}
	}
	switch *exp {
	case "tune":
		fail(tuneExamples(*tuneBudget, *tuneSeed))
	case "metrics":
		rows, err := experiments.Metrics(*nodes)
		fail(err)
		fmt.Println(experiments.RenderMetrics(rows))
	default:
		fail(run(*exp, *nodes))
	}
}

func run(exp string, nodes int) error {
	switch exp {
	case "fig15a":
		return showFig(experiments.Fig15a(nodes))
	case "fig15b":
		return showFig(experiments.Fig15b(nodes))
	case "fig16":
		return fig16(nodes)
	case "fig9":
		rows, err := experiments.Fig9Table(64, 16384)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig9(rows))
		return nil
	case "summary":
		_, text, err := experiments.Summary(nodes)
		if err != nil {
			return err
		}
		fmt.Println(text)
		return nil
	case "plancache":
		return planCache()
	case "all":
		if err := showFig(experiments.Fig15a(nodes)); err != nil {
			return err
		}
		if err := showFig(experiments.Fig15b(nodes)); err != nil {
			return err
		}
		if err := fig16(nodes); err != nil {
			return err
		}
		rows, err := experiments.Fig9Table(64, 16384)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig9(rows))
		_, text, err := experiments.Summary(min(nodes, 64))
		if err != nil {
			return err
		}
		fmt.Println(text)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// tuneExamples auto-tunes the five example workloads, prints the
// leaderboard summary, and fails when any winner is worse than the
// AutoSchedule baseline — the guarantee CI's tuner smoke step leans on.
func tuneExamples(budget int, seed int64) error {
	rows, err := experiments.TuneExamples(budget, seed)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderTune(rows))
	return experiments.VerifyTune(rows)
}

// planCache measures what the session's plan cache buys a serving workload:
// the same GEMM request compiled and simulated with a cold cache (compile
// every time) against a warm one (compile once, simulate many).
func planCache() error {
	const n, g = 1024, 4
	req := distal.Request{
		Stmt: "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{
			"A": {n, n}, "B": {n, n}, "C": {n, n},
		},
		Formats: map[string]string{"A": "xy->xy", "B": "xy->**", "C": "xy->**"},
		Schedule: "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) " +
			"distribute(io,jo) split(k,ko,ki,128) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(ko,B,C)",
	}
	machine := func() *distal.Machine { return distal.NewMachine(distal.CPU, g, g) }
	ctx := context.Background()
	execute := func(sess *distal.Session) error {
		plan, err := sess.Compile(ctx, req)
		if err != nil {
			return err
		}
		_, err = plan.Simulate(ctx)
		return err
	}

	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := execute(distal.NewSession(machine())); err != nil {
			return err
		}
	}
	cold := time.Since(start) / reps

	sess := distal.NewSession(machine())
	if err := execute(sess); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := execute(sess); err != nil {
			return err
		}
	}
	warm := time.Since(start) / reps
	st := sess.CacheStats()

	fmt.Println("## Session plan cache (GEMM, 4x4 grid, replicated inputs)")
	fmt.Printf("%-22s %12s\n", "", "per request")
	fmt.Printf("%-22s %12s\n", "cold (compile+run)", cold.Round(time.Microsecond))
	fmt.Printf("%-22s %12s\n", "warm (cache hit+run)", warm.Round(time.Microsecond))
	fmt.Printf("%-22s %11.1fx\n", "speedup", float64(cold)/float64(warm))
	fmt.Printf("cache: %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Entries)
	return nil
}

func fig16(nodes int) error {
	for _, k := range experiments.HigherKernels {
		for _, gpu := range []bool{false, true} {
			if err := showFig(experiments.Fig16(k, gpu, nodes)); err != nil {
				return err
			}
		}
	}
	return nil
}

func showFig(f *experiments.Figure, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(experiments.Render(f))
	return nil
}
