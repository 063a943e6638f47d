package experiments

import (
	"fmt"
	"maps"
	"math"
	"strings"

	"distal/internal/algorithms"
	"distal/internal/core"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// Fig9Row is one line of the algorithm verification table (experiment E7):
// every algorithm of Figure 9 is validated bit-for-bit against the
// sequential reference at a small size, then its communication volume is
// measured at a large size and compared with the analytic prediction.
type Fig9Row struct {
	Alg string
	// Valid is true when the distributed result matches the reference.
	Valid bool
	// InterGB is the measured total inter-node communication volume.
	InterGB float64
	// PredictedGB is the closed-form communication volume of the algorithm
	// family: ~2*n^2*sqrt(p) words for 2D algorithms, ~3*n^2*p^(1/3) for 3D.
	PredictedGB float64
}

// Fig9Table validates and measures every matmul algorithm on the given
// processor count (a perfect square with an integer cube root works for all
// six, e.g. 64).
func Fig9Table(procs, n int) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, alg := range algorithms.MatmulAlgs {
		row := Fig9Row{Alg: algName(alg)}
		// Correctness at a small size with real data.
		small, err := algorithms.Matmul(alg, algorithms.MatmulConfig{N: 24, Procs: 8})
		if err != nil {
			return nil, err
		}
		valid, err := validateReal(small)
		if err != nil {
			return nil, err
		}
		row.Valid = valid
		// Communication volume at the large size.
		big, err := algorithms.Matmul(alg, algorithms.MatmulConfig{N: n, Procs: procs})
		if err != nil {
			return nil, err
		}
		res, err := runInput(big, sim.LassenCPU())
		if err != nil {
			return nil, err
		}
		row.InterGB = float64(res.InterBytes+res.IntraBytes) / 1e9
		row.PredictedGB = predictedCommGB(alg, n, procs)
		rows = append(rows, row)
	}
	return rows, nil
}

// predictedCommGB is the textbook total communication volume of each
// algorithm family in GB (words * 8 bytes): 2D algorithms move ~2*n^2*
// sqrt(p) words in total; 3D algorithms ~3*n^2*p^(1/3).
func predictedCommGB(alg algorithms.Alg, n, p int) float64 {
	// Rounded, so that 2*n2 (n2+n2) cannot fuse with the product
	// (docs/ARCHITECTURE.md).
	n2 := float64(float64(n) * float64(n))
	switch alg {
	case algorithms.Cannon, algorithms.PUMMA, algorithms.SUMMA:
		return 2 * n2 * math.Sqrt(float64(p)) * 8 / 1e9
	default:
		return 3 * n2 * math.Cbrt(float64(p)) * 8 / 1e9
	}
}

// validateReal executes the input on fresh deterministic data, bound to the
// execution, and compares against the reference evaluator.
func validateReal(in core.Input) (bool, error) {
	data := algorithms.RandomData(in)
	lhs := in.Stmt.LHS.Tensor
	inputs := maps.Clone(data)
	delete(inputs, lhs)
	want, err := ir.Evaluate(in.Stmt, inputs)
	if err != nil {
		return false, err
	}
	prog, err := core.Compile(in)
	if err != nil {
		return false, err
	}
	opt := legion.Options{Params: sim.LassenCPU(), Real: true, Batch: []map[string]*tensor.Dense{data}}
	if _, err := legion.Run(prog, opt); err != nil {
		return false, err
	}
	got := data[lhs]
	if want.Rank() == 0 && got.Rank() == 1 {
		d := want.At() - got.At(0)
		return d < 1e-9 && d > -1e-9, nil
	}
	return got.EqualWithin(want, 1e-9), nil
}

// RenderFig9 prints the verification table.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fig9: algorithm verification (correctness + measured vs predicted comm volume)\n")
	fmt.Fprintf(&b, "%-14s %-8s %14s %14s %8s\n", "algorithm", "valid", "measured GB", "predicted GB", "ratio")
	for _, r := range rows {
		ratio := r.InterGB / r.PredictedGB
		fmt.Fprintf(&b, "%-14s %-8v %14.2f %14.2f %8.2f\n", r.Alg, r.Valid, r.InterGB, r.PredictedGB, ratio)
	}
	return b.String()
}

// SummaryRow is one headline comparison of §1/§7 (experiment E10).
type SummaryRow struct {
	Comparison string
	Speedup    float64
	PaperSays  string
}

// Summary computes the paper's headline claims at the given node count:
// DISTAL's best matmul vs ScaLAPACK/CTF/COSMA, and each higher-order kernel
// vs CTF.
func Summary(nodes int) ([]SummaryRow, string, error) {
	fig, err := Fig15a(nodes)
	if err != nil {
		return nil, "", err
	}
	best := 0.0
	for _, s := range fig.Series {
		if strings.HasPrefix(s.Name, "Our ") && s.At(nodes) > best {
			best = s.At(nodes)
		}
	}
	var rows []SummaryRow
	add := func(name, paper string, base float64) {
		if base > 0 {
			rows = append(rows, SummaryRow{Comparison: name, Speedup: best / base, PaperSays: paper})
		}
	}
	add("best DISTAL vs ScaLAPACK (CPU)", ">= 1.25x", fig.Get("ScaLAPACK").At(nodes))
	add("best DISTAL vs CTF (CPU)", ">= 1.25x", fig.Get("CTF").At(nodes))
	add("best DISTAL vs COSMA (CPU)", ">= 0.95x", fig.Get("COSMA").At(nodes))

	for _, k := range HigherKernels {
		hf, err := Fig16(k, false, nodes)
		if err != nil {
			return nil, "", err
		}
		ours, ctf := hf.Get("Ours").At(nodes), hf.Get("CTF").At(nodes)
		if ctf > 0 {
			paper := "1.8x-3.7x"
			if k == TTV {
				paper = "large outlier (45.7x)"
			}
			rows = append(rows, SummaryRow{
				Comparison: fmt.Sprintf("DISTAL vs CTF: %s (CPU)", k),
				Speedup:    ours / ctf,
				PaperSays:  paper,
			})
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# summary: headline comparisons at %d nodes (paper's §1/§7 claims)\n", nodes)
	fmt.Fprintf(&b, "%-36s %10s %22s\n", "comparison", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %9.2fx %22s\n", r.Comparison, r.Speedup, r.PaperSays)
	}
	return rows, b.String(), nil
}
