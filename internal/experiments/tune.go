package experiments

import (
	"context"
	"fmt"
	"strings"

	"distal"
)

// TuneRow is one auto-tuned example workload: the AutoSchedule baseline
// makespan, the tuner's winner, and the speedup. Rows are what
// `distal-bench -exp tune` prints and what CI's tuner smoke asserts on.
type TuneRow struct {
	Name string `json:"name"`
	// BaselineSec is the AutoSchedule heuristic's makespan; 0 when the
	// heuristic is undefined for the workload (fewer output variables than
	// machine dimensions, e.g. GEMM on a cube).
	BaselineSec float64 `json:"baseline_sec"`
	// HandSec is the makespan of the example's hand-written schedule,
	// which competes as a seed candidate.
	HandSec   float64 `json:"hand_sec"`
	TunedSec  float64 `json:"tuned_sec"`
	Speedup   float64 `json:"speedup"`
	Evaluated int     `json:"evaluated"`
	Winner    string  `json:"winner"`
	// OOM flags per schedule: the tuner prefers any non-OOM schedule over
	// a faster OOM one, so makespan comparisons only bind between
	// schedules on the same side of the memory limit.
	WinnerOOM   bool `json:"winner_oom,omitempty"`
	BaselineOOM bool `json:"baseline_oom,omitempty"`
	HandOOM     bool `json:"hand_oom,omitempty"`
}

// tuneCase mirrors one of the five example workloads (examples/) as a pure
// Request plus its machine, so the tuner can search the exact workloads the
// repository demonstrates by hand.
type tuneCase struct {
	name    string
	machine func() *distal.Machine
	params  distal.Params
	req     distal.Request
}

func tuneCases() []tuneCase {
	square := func(n int, names ...string) map[string][]int {
		out := map[string][]int{}
		for _, name := range names {
			out[name] = []int{n, n}
		}
		return out
	}
	gemm := "A(i,j) = B(i,k) * C(k,j)"
	return []tuneCase{
		{
			// examples/quickstart: SUMMA-style GEMM on a 4x4 CPU grid.
			name:    "summa",
			machine: func() *distal.Machine { return distal.NewMachine(distal.CPU, 4, 4) },
			params:  distal.LassenCPU(),
			req: distal.Request{
				Stmt: gemm, Shapes: square(1024, "A", "B", "C"),
				Schedule: "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) distribute(io,jo) " +
					"split(k,ko,ki,256) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)",
			},
		},
		{
			// examples/cannon: systolic GEMM on a 3x3 grid.
			name:    "cannon",
			machine: func() *distal.Machine { return distal.NewMachine(distal.CPU, 3, 3) },
			params:  distal.LassenCPU(),
			req: distal.Request{
				Stmt: gemm, Shapes: square(768, "A", "B", "C"),
				Schedule: "divide(i,io,ii,3) divide(j,jo,ji,3) reorder(io,jo,ii,ji) distribute(io,jo) " +
					"divide(k,ko,ki,3) reorder(io,jo,ko,ii,ji,ki) rotate(ko,io,jo,kos) " +
					"communicate(jo,A) communicate(kos,B,C)",
			},
		},
		{
			// examples/johnson3d: 3D GEMM on a processor cube, inputs fixed
			// to cube faces.
			name:    "johnson",
			machine: func() *distal.Machine { return distal.NewMachine(distal.CPU, 2, 2, 2) },
			params:  distal.LassenCPU(),
			req: distal.Request{
				Stmt:    gemm,
				Shapes:  square(256, "A", "B", "C"),
				Formats: map[string]string{"A": "xy->xy0", "B": "xz->x0z", "C": "zy->0yz"},
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) divide(k,ko,ki,2) " +
					"reorder(io,jo,ko,ii,ji,ki) distribute(io,jo,ko) communicate(ko,A,B,C)",
			},
		},
		{
			// examples/mttkrp: the Ballard et al. MTTKRP algorithm's data
			// distribution on a processor cube.
			name:    "mttkrp",
			machine: func() *distal.Machine { return distal.NewMachine(distal.CPU, 2, 2, 2) },
			params:  distal.LassenCPU(),
			req: distal.Request{
				Stmt: "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
				Shapes: map[string][]int{
					"A": {64, 32}, "B": {64, 64, 64}, "C": {64, 32}, "D": {64, 32},
				},
				Formats: map[string]string{
					"A": "ab->a00", "B": "abc->abc", "C": "ab->*a*", "D": "ab->**a",
				},
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,2) divide(k,ko,ki,2) " +
					"reorder(io,jo,ko,ii,ji,ki,l) distribute(io,jo,ko) communicate(ko,A,B,C,D)",
			},
		},
		{
			// examples/hierarchical: multi-GPU nodes (2x8 GPUs, 4 per node).
			name: "hierarchical",
			machine: func() *distal.Machine {
				return distal.NewMachine(distal.GPU, 2, 8).WithProcsPerNode(4)
			},
			params: distal.LassenGPU(),
			req: distal.Request{
				Stmt: gemm, Shapes: square(512, "A", "B", "C"),
				Schedule: "divide(i,io,ii,2) divide(j,jo,ji,8) reorder(io,jo,ii,ji) distribute(io,jo) " +
					"split(k,ko,ki,256) reorder(io,jo,ko,ii,ji,ki) communicate(jo,A) communicate(ko,B,C)",
			},
		},
	}
}

// TuneExamples auto-tunes the five example workloads with the given budget
// and seed and returns one row per workload. Winners never rank worse than
// the AutoSchedule baseline (the baseline is always a candidate); Verify
// turns a violation into an error.
func TuneExamples(budget int, seed int64) ([]TuneRow, error) {
	ctx := context.Background()
	var rows []TuneRow
	for _, c := range tuneCases() {
		sess := distal.NewSession(c.machine(), distal.WithParams(c.params))
		res, err := sess.Tune(ctx, c.req, distal.TuneOptions{Budget: budget, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("tune %s: %w", c.name, err)
		}
		row := TuneRow{
			Name:      c.name,
			TunedSec:  res.Winner.MakespanSec,
			Evaluated: res.Evaluated,
			Winner:    res.Winner.Schedule,
			WinnerOOM: res.Winner.OOM,
		}
		if res.Baseline != nil {
			row.BaselineSec = res.Baseline.MakespanSec
			row.BaselineOOM = res.Baseline.OOM
			row.Speedup = res.Speedup()
		}
		if c.req.Schedule != "" {
			plan, err := sess.Compile(ctx, c.req)
			if err != nil {
				return nil, fmt.Errorf("tune %s: hand schedule: %w", c.name, err)
			}
			hand, err := plan.Simulate(ctx)
			if err != nil {
				return nil, fmt.Errorf("tune %s: hand schedule: %w", c.name, err)
			}
			row.HandSec = hand.Time
			row.HandOOM = hand.OOM
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// VerifyTune checks the tuner's core guarantee on example-workload rows:
// the winner's simulated makespan is no worse than the AutoSchedule
// baseline (where it exists) or the example's hand-written schedule (which
// competes as a seed candidate). A reference schedule that exhausts memory
// does not bind — the tuner rightly prefers any non-OOM schedule over a
// faster OOM one — but then the winner must itself be OOM-free.
func VerifyTune(rows []TuneRow) error {
	for _, r := range rows {
		check := func(refSec float64, refOOM bool, what string) error {
			if refSec <= 0 {
				return nil
			}
			if refOOM {
				if r.WinnerOOM {
					return fmt.Errorf("tune %s: both winner and %s exhaust memory", r.Name, what)
				}
				return nil
			}
			if r.WinnerOOM {
				return fmt.Errorf("tune %s: winner exhausts memory but the %s does not", r.Name, what)
			}
			if r.TunedSec > refSec*(1+1e-9) {
				return fmt.Errorf("tune %s: winner %.6fs is worse than the %s %.6fs",
					r.Name, r.TunedSec, what, refSec)
			}
			return nil
		}
		if err := check(r.BaselineSec, r.BaselineOOM, "AutoSchedule baseline"); err != nil {
			return err
		}
		if err := check(r.HandSec, r.HandOOM, "hand-written schedule"); err != nil {
			return err
		}
	}
	return nil
}

// RenderTune prints tune rows as an aligned text table.
func RenderTune(rows []TuneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# auto-tuned example workloads\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %8s %6s  %s\n", "workload", "auto", "hand", "tuned", "speedup", "evals", "winner")
	for _, r := range rows {
		base, hand := "-", "-"
		if r.BaselineSec > 0 {
			base = fmt.Sprintf("%.6fs", r.BaselineSec)
		}
		if r.HandSec > 0 {
			hand = fmt.Sprintf("%.6fs", r.HandSec)
		}
		fmt.Fprintf(&b, "%-14s %12s %12s %11.6fs %7.2fx %6d  %s\n",
			r.Name, base, hand, r.TunedSec, r.Speedup, r.Evaluated, r.Winner)
	}
	return b.String()
}
