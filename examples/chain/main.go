// Chain compiles multi-statement programs into plan DAGs and shows why the
// intermediates should stay distributed. Two workloads:
//
//   - a GEMM chain E = (A*B)*C, where the n x n intermediate D flows from
//     the first SUMMA stage straight into the second without ever being
//     gathered to one processor, and
//   - MTTKRP by way of TTM: A(i,l) = B(i,j,k)*C(j,l)*D(k,l) computed as
//     T(i,j,l) = B(i,j,k)*D(k,l) followed by A(i,l) = T(i,j,l)*C(j,l),
//     the two-kernel factorization whose rank-3 intermediate T is far too
//     large to round-trip through a single node.
//
// Each workload is validated in Real mode against the sequential reference
// interpreter, then simulated at scale to compare the DAG's inter-node
// traffic against the sequential baseline (run stage 1, gather the
// intermediate to the root, scatter it back out for stage 2).
package main

import (
	"context"
	"fmt"
	"log"

	"distal"
	"distal/internal/algorithms"
	"distal/internal/program"
	"distal/internal/tensor"
)

func main() {
	gemmChain()
	fmt.Println()
	ttmMttkrp()
}

// gemmRequest writes the chain with both stages SUMMA on a g x g grid, k
// streaming in chunks of n/g.
func gemmRequest(n, g int) distal.Request {
	tiled := map[string]string{"A": "xy->xy", "B": "xy->xy", "C": "xy->xy", "D": "xy->xy", "E": "xy->xy"}
	pick := func(names ...string) map[string]string {
		m := map[string]string{}
		for _, s := range names {
			m[s] = tiled[s]
		}
		return m
	}
	return distal.Request{
		Shapes: map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Stmts: []distal.Statement{
			{Stmt: "D(i,j) = A(i,k) * B(k,j)", Formats: pick("A", "B", "D"), Schedule: algorithms.SummaSchedule(g, g, n/g, "D", "A", "B")},
			{Stmt: "E(i,j) = D(i,k) * C(k,j)", Formats: pick("D", "C", "E"), Schedule: algorithms.SummaSchedule(g, g, n/g, "E", "D", "C")},
		},
	}
}

func gemmChain() {
	fmt.Println("=== GEMM chain: E = (A*B) * C ===")

	// Small validated run on a 2x2 grid: the DAG's output must match the
	// sequential reference interpreter bit for bit in structure and within
	// float tolerance in value.
	const n, g = 64, 2
	sess := distal.NewSession(distal.NewMachine(distal.CPU, g, g))
	req := gemmRequest(n, g)
	pp, err := sess.Compile(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	tiled := distal.MustFormat("xy->xy")
	a := distal.NewTensor("A", tiled, n, n).FillRandom(1)
	b := distal.NewTensor("B", tiled, n, n).FillRandom(2)
	c := distal.NewTensor("C", tiled, n, n).FillRandom(3)
	pb := pp.Bind(a, b, c)
	if _, err := pb.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	ref := evaluate(req, map[string]*tensor.Dense{"A": a.Data, "B": b.Data, "C": c.Data})
	fmt.Printf("stages %d (repartitions %d), inputs %v, output %s\n",
		pp.Stages(), pp.Repartitions(), pp.Inputs(), pp.Output())
	fmt.Printf("distributed chain matches reference: %v\n",
		pb.Output().Data.EqualWithin(ref["E"], 1e-9))

	// At scale, compare the DAG against the sequential baseline: the same
	// two stages, but with D gathered to the root after stage 1 and
	// scattered back out before stage 2 (what two independent requests
	// would do). The DAG never moves D off its owners.
	fmt.Println("\nsimulated inter-node traffic, DAG vs gather-and-rescatter (4x4 grid):")
	fmt.Printf("%-8s %-14s %-14s %-10s\n", "n", "dag GB", "seq GB", "saved")
	for _, bign := range []int{2048, 4096, 8192} {
		big := distal.NewSession(distal.NewMachine(distal.CPU, 4, 4))
		bigReq := gemmRequest(bign, 4)
		bp, err := big.Compile(context.Background(), bigReq)
		if err != nil {
			log.Fatal(err)
		}
		dag, err := bp.Simulate(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		seq := standaloneBytes(big, bigReq)
		// The baseline's handoff: D down to the root and back out.
		for _, dir := range [][2]string{{"xy->xy", "xy->00"}, {"xy->00", "xy->xy"}} {
			bytes, _, err := big.RedistributeCost(
				distal.NewTensor("D", distal.MustFormat(dir[0]), bign, bign),
				distal.MustFormat(dir[1]))
			if err != nil {
				log.Fatal(err)
			}
			seq += bytes
		}
		fmt.Printf("%-8d %-14.3f %-14.3f %.1f%%\n", bign,
			float64(dag.InterBytes)/1e9, float64(seq)/1e9,
			100*(1-float64(dag.InterBytes)/float64(seq)))
	}
}

// ttmMttkrp computes MTTKRP through its TTM factorization. The rank-3
// intermediate T(i,j,l) is the whole point: at scale it dwarfs every other
// tensor in the program, so the DAG's ability to hand it from producer to
// consumer in place is the difference between a working program and a
// root-node OOM.
func ttmMttkrp() {
	fmt.Println("=== MTTKRP via TTM: T(i,j,l) = B(i,j,k)*D(k,l); A(i,l) = T(i,j,l)*C(j,l) ===")

	req := func(n, r, g, chunk int) distal.Request {
		s1 := fmt.Sprintf("divide(i,io,ii,%d) divide(j,jo,ji,%d) reorder(io,jo,ii,ji) distribute(io,jo) "+
			"split(k,ko,ki,%d) reorder(io,jo,ko,ii,ji,ki,l) communicate(jo,T) communicate(ko,B,D)",
			g, g, chunk)
		s2 := fmt.Sprintf("divide(i,io,ii,%d) divide(j,jo,ji,%d) reorder(io,jo,ii,ji) distribute(io,jo) "+
			"communicate(jo,A) communicate(jo,T,C)", g, g)
		return distal.Request{
			Shapes: map[string][]int{"B": {n, n, n}, "C": {n, r}, "D": {n, r}},
			Stmts: []distal.Statement{
				{Stmt: "T(i,j,l) = B(i,j,k) * D(k,l)",
					Formats:  map[string]string{"B": "xyz->xy", "D": "xy->**", "T": "xyz->xy"},
					Schedule: s1},
				{Stmt: "A(i,l) = T(i,j,l) * C(j,l)",
					Formats:  map[string]string{"T": "xyz->xy", "C": "xy->**", "A": "xy->x*"},
					Schedule: s2},
			},
		}
	}

	// Small validated run on a 2x2 grid.
	const n, r, g = 16, 4, 2
	sess := distal.NewSession(distal.NewMachine(distal.CPU, g, g))
	q := req(n, r, g, n/g)
	pp, err := sess.Compile(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	b := distal.NewTensor("B", distal.MustFormat("xyz->xy"), n, n, n).FillRandom(4)
	c := distal.NewTensor("C", distal.MustFormat("xy->**"), n, r).FillRandom(5)
	d := distal.NewTensor("D", distal.MustFormat("xy->**"), n, r).FillRandom(6)
	pb := pp.Bind(b, c, d)
	if _, err := pb.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	ref := evaluate(q, map[string]*tensor.Dense{"B": b.Data, "C": c.Data, "D": d.Data})
	fmt.Printf("stages %d (repartitions %d), inputs %v, output %s\n",
		pp.Stages(), pp.Repartitions(), pp.Inputs(), pp.Output())
	fmt.Printf("distributed TTM-MTTKRP matches reference: %v\n",
		pb.Output().Data.EqualWithin(ref["A"], 1e-9))

	// At scale: the intermediate T holds n^2 r doubles — the DAG's saving is
	// almost exactly the cost of round-tripping it through the root.
	fmt.Println("\nsimulated inter-node traffic, DAG vs gather-and-rescatter (4x4 grid):")
	fmt.Printf("%-8s %-6s %-14s %-14s %-10s\n", "n", "r", "dag GB", "seq GB", "saved")
	for _, bign := range []int{256, 512} {
		const bigr = 32
		big := distal.NewSession(distal.NewMachine(distal.CPU, 4, 4))
		bigReq := req(bign, bigr, 4, bign/4)
		bp, err := big.Compile(context.Background(), bigReq)
		if err != nil {
			log.Fatal(err)
		}
		dag, err := bp.Simulate(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		seq := standaloneBytes(big, bigReq)
		// The baseline's handoff: T down to leaf (0,0) and back out.
		for _, dir := range [][2]string{{"xyz->xy", "xyz->00"}, {"xyz->00", "xyz->xy"}} {
			bytes, _, err := big.RedistributeCost(
				distal.NewTensor("T", distal.MustFormat(dir[0]), bign, bign, bigr),
				distal.MustFormat(dir[1]))
			if err != nil {
				log.Fatal(err)
			}
			seq += bytes
		}
		fmt.Printf("%-8d %-6d %-14.3f %-14.3f %.1f%%\n", bign, bigr,
			float64(dag.InterBytes)/1e9, float64(seq)/1e9,
			100*(1-float64(dag.InterBytes)/float64(seq)))
	}
}

// standaloneBytes simulates each statement of req as a request of its own,
// as two independent requests would run them, and sums their inter-node
// bytes. Each resolves to the cached plan its DAG stage runs.
func standaloneBytes(sess *distal.Session, req distal.Request) int64 {
	p, err := program.Parse(req.Stmts, req.Shapes)
	if err != nil {
		log.Fatal(err)
	}
	var sum int64
	for _, st := range p.Stages {
		shapes := map[string][]int{}
		for _, name := range st.Assign.TensorNames() {
			shapes[name] = p.Shapes[name]
		}
		plan, err := sess.Compile(context.Background(), distal.Request{
			Stmt: st.Src.Stmt, Shapes: shapes, Formats: st.Src.Formats, Schedule: st.Src.Schedule})
		if err != nil {
			log.Fatal(err)
		}
		res, err := plan.Simulate(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		sum += res.InterBytes
	}
	return sum
}

// evaluate runs the whole program through the sequential reference
// interpreter and returns every computed tensor.
func evaluate(req distal.Request, leaves map[string]*tensor.Dense) map[string]*tensor.Dense {
	p, err := program.Parse(req.Stmts, req.Shapes)
	if err != nil {
		log.Fatal(err)
	}
	out, err := program.Evaluate(p, leaves)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
