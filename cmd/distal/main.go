// Command distal compiles a distributed tensor algebra algorithm and shows
// what the compiler produces: the concrete index notation of the scheduled
// statement, the generated Legion program, and (optionally) a simulated
// execution on the Lassen cost model.
//
// Usage:
//
//	distal -alg summa -n 64 -procs 4            # print the generated program
//	distal -alg cannon -n 64 -procs 9 -trace    # show the copy trace
//	distal -alg johnson -n 4096 -procs 8 -sim   # simulate at size
//	distal -expr "A(i,j) = B(i,j,k) * c(k)" -sim # arbitrary expression, auto-scheduled
//	distal -expr "A(i,j) = B(i,k) * C(k,j)" \
//	    -sched "divide(i,io,ii,4) reorder(io,ii,j,k) distribute(io) communicate(io,A,B,C)" \
//	    -sim                                     # explicit schedule text
//
// Every mode compiles a request through the session API. An -alg algorithm
// is the paper's request text (internal/algorithms) compiled on the
// algorithm's machine; -expr writes a request of the statement, its shapes
// and first-mode formats, and the schedule text (empty auto-schedules);
// -chain writes a multi-statement request.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"distal"
	"distal/internal/algorithms"
	"distal/internal/ir"
	"distal/internal/request"
)

func main() {
	alg := flag.String("alg", "summa", "algorithm: cannon, pumma, summa, johnson, solomonik, cosma")
	expr := flag.String("expr", "", "arbitrary tensor index notation statement (overrides -alg), e.g. \"A(i,j) = B(i,j,k) * c(k)\"")
	chain := flag.String("chain", "", "semicolon-separated multi-statement program (overrides -alg/-expr), e.g. \"D(i,j)=A(i,k)*B(k,j); E(i,j)=D(i,k)*C(k,j)\"; compiled as one plan DAG, each stage auto-scheduled")
	sched := flag.String("sched", "", "schedule command text for -expr, e.g. \"divide(i,io,ii,4) reorder(io,ii,j,k) distribute(io)\"; empty auto-schedules")
	n := flag.Int("n", 64, "square matrix / tensor mode dimension")
	procs := flag.Int("procs", 4, "processor count")
	gpu := flag.Bool("gpu", false, "GPU machine (4 per node)")
	simulate := flag.Bool("sim", false, "simulate execution and print statistics")
	trace := flag.Bool("trace", false, "print the communication trace")
	maxPoints := flag.Int("points", 4, "task points to list per launch (0 = all)")
	flag.Parse()

	var err error
	if *chain != "" {
		if *sched != "" {
			err = fmt.Errorf("-sched does not apply to -chain (its stages auto-schedule; use the API or /v1/run for per-stage schedules)")
		} else {
			err = runChain(*chain, *n, *procs, *gpu, *simulate, *trace)
		}
	} else if *expr != "" {
		err = runExpr(*expr, *sched, *n, *procs, *gpu, *simulate, *trace, *maxPoints)
	} else if *sched != "" {
		err = fmt.Errorf("-sched only applies to -expr statements; the -alg schedules are built in")
	} else {
		err = runAlg(*alg, *n, *procs, *gpu, *simulate, *trace, *maxPoints)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "distal:", err)
		os.Exit(1)
	}
}

func newMachine(procs int, gpu bool) *distal.Machine {
	if gpu {
		return distal.NewMachine(distal.GPU, procs).WithProcsPerNode(4)
	}
	return distal.NewMachine(distal.CPU, procs)
}

func params(gpu bool) distal.Params {
	if gpu {
		return distal.LassenGPU()
	}
	return distal.LassenCPU()
}

// runExpr drives an arbitrary statement through the session API: every mode
// has extent n, tensors are partitioned over a 1-D machine by their first
// mode, and the schedule is the given command text (auto-scheduled when
// empty).
func runExpr(expr, schedText string, n, procs int, gpu, simulate, trace bool, maxPoints int) error {
	stmt, err := ir.Parse(expr)
	if err != nil {
		return err
	}
	if len(stmt.LHS.Indices) == 0 {
		return fmt.Errorf("scalar outputs are not supported by -expr; use the library API")
	}
	shapes, err := request.ParseShapes([]string{expr}, "", n)
	if err != nil {
		return err
	}
	formats := map[string]string{}
	for name, shape := range shapes {
		if formats[name], err = firstMode("-expr", name, len(shape)); err != nil {
			return err
		}
	}
	sess := distal.NewSession(newMachine(procs, gpu), distal.WithParams(params(gpu)))
	plan, err := sess.Compile(context.Background(), distal.Request{Stmt: expr, Shapes: shapes, Formats: formats, Schedule: schedText})
	if err != nil {
		return err
	}
	return show(plan, maxPoints, simulate, trace)
}

// runChain compiles a semicolon-separated statement list into a plan DAG:
// leaf tensors get extent n per mode, each stage auto-schedules, and
// intermediates stay distributed between stages.
func runChain(src string, n, procs int, gpu, simulate, trace bool) error {
	var stmts []distal.Statement
	var texts []string
	for _, s := range strings.Split(src, ";") {
		if s = strings.TrimSpace(s); s != "" {
			stmts = append(stmts, distal.Statement{Stmt: s})
			texts = append(texts, s)
		}
	}
	if len(stmts) == 0 {
		return fmt.Errorf("-chain has no statements")
	}
	shapes, err := request.ParseShapes(texts, "", n)
	if err != nil {
		return err
	}
	// Every tensor is partitioned over the 1-D machine by its first mode
	// (the same shorthand as -expr). Formats are per statement, identical
	// for a tensor wherever it appears, so producer/consumer handoffs never
	// need a repartition here.
	for i := range stmts {
		stmt, err := ir.Parse(stmts[i].Stmt)
		if err != nil {
			return err
		}
		// A one-statement chain still declares leaf inputs only.
		delete(shapes, stmt.LHS.Tensor)
		stmts[i].Formats = map[string]string{}
		for _, a := range append(stmt.RHS.Accesses(nil), stmt.LHS) {
			// A scalar access reads a rank-1 tensor of extent 1.
			if stmts[i].Formats[a.Tensor], err = firstMode("-chain", a.Tensor, max(len(a.Indices), 1)); err != nil {
				return err
			}
		}
	}
	sess := distal.NewSession(newMachine(procs, gpu), distal.WithParams(params(gpu)))
	pp, err := sess.CompileProgram(context.Background(), distal.Request{Shapes: shapes, Stmts: stmts})
	if err != nil {
		return err
	}
	fmt.Println("=== program ===")
	fmt.Printf("statements    %d\n", len(stmts))
	fmt.Printf("stages        %d (%d repartitions)\n", pp.Stages(), pp.Repartitions())
	fmt.Printf("inputs        %s\n", strings.Join(pp.Inputs(), ", "))
	fmt.Printf("output        %s %v\n", pp.Output(), pp.Shape(pp.Output()))
	fmt.Printf("plan          %s cached=%t\n", pp.Key(), pp.Stats().Cached)
	return execute(simulate, trace, pp.Simulate)
}

// firstMode writes the format that partitions a rank-r tensor over the 1-D
// machine by its first mode; the remaining modes span fully.
func firstMode(flag, name string, rank int) (string, error) {
	const names = "xyzwuv"
	if rank > len(names) {
		return "", fmt.Errorf("tensor %s has rank %d; %s supports ranks up to %d", name, rank, flag, len(names))
	}
	return names[:rank] + "->" + names[:1], nil
}

// runAlg compiles one of the paper's matmul algorithms, written as a
// request, through a session on the algorithm's machine.
func runAlg(alg string, n, procs int, gpu, simulate, trace bool, maxPoints int) error {
	cfg := algorithms.MatmulConfig{N: n, Procs: procs, GPU: gpu}
	if gpu {
		cfg.ProcsPerNode = 4
	}
	m, req, err := algorithms.MatmulRequest(algorithms.Alg(alg), cfg)
	if err != nil {
		return err
	}
	sess := distal.NewSession(&distal.Machine{M: m}, distal.WithParams(params(gpu)))
	plan, err := sess.Compile(context.Background(), req)
	if err != nil {
		return err
	}
	return show(plan, maxPoints, simulate, trace)
}

// simulator runs a compiled plan or plan DAG without data.
type simulator func(context.Context, ...distal.ExecOption) (*distal.Result, error)

// show prints what the compiler produced for a plan — its schedule, the
// concrete index notation of the scheduled statement, and the generated
// program — then simulates it when -sim or -trace asks.
func show(plan *distal.Plan, maxPoints int, simulate, trace bool) error {
	fmt.Println("=== schedule ===")
	fmt.Println(plan.ScheduleText())
	fmt.Println()
	fmt.Println("=== concrete index notation ===")
	fmt.Println(plan.Notation())
	fmt.Println()
	fmt.Println("=== generated program ===")
	fmt.Print(plan.Listing(maxPoints))
	return execute(simulate, trace, plan.Simulate)
}

// execute simulates (when -sim or -trace asks for it) and prints the
// statistics and, with -trace, the copy trace.
func execute(simulate, trace bool, run simulator) error {
	if !simulate && !trace {
		return nil
	}
	var mods []distal.ExecOption
	if trace {
		mods = append(mods, distal.WithTrace())
	}
	res, err := run(context.Background(), mods...)
	if err != nil {
		return err
	}
	printResult(res, trace)
	return nil
}

func printResult(res *distal.Result, trace bool) {
	fmt.Println()
	fmt.Println("=== simulated execution ===")
	fmt.Printf("time          %.6f s\n", res.Time)
	fmt.Printf("throughput    %.1f GFLOP/s\n", res.GFlopsPerSec())
	fmt.Printf("inter-node    %.3f GB\n", float64(res.InterBytes)/1e9)
	fmt.Printf("intra-node    %.3f GB\n", float64(res.IntraBytes)/1e9)
	fmt.Printf("copies        %d\n", res.Copies)
	fmt.Printf("peak memory   %.3f GB per processor\n", float64(res.PeakMemBytes)/1e9)
	if res.OOM {
		fmt.Printf("OOM           processor %d exceeded its memory capacity\n", res.OOMLeaf)
	}
	if trace {
		fmt.Println()
		fmt.Println("=== copy trace ===")
		distal.SortTrace(res.Trace)
		limit := len(res.Trace)
		if limit > 40 {
			limit = 40
		}
		for _, c := range res.Trace[:limit] {
			fmt.Printf("[%.6f, %.6f] %s %s %s: proc %d -> proc %d\n",
				c.Start, c.End, c.Launch, c.Region, c.Rect, c.Src, c.Dst)
		}
		if len(res.Trace) > limit {
			fmt.Printf("... %d more copies\n", len(res.Trace)-limit)
		}
	}
}
