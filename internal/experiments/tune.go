package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"distal"
	"distal/internal/algorithms"
	"distal/internal/machine"
	"distal/internal/request"
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
	// HandSec is the makespan of the algorithm's hand-written schedule
	// (the request's own), which competes as a seed candidate.
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

// tuneCase is one example workload: the request of the paper's algorithm
// that the example under examples/ compiles, at a tuning size, with the
// example's machine and cost model.
type tuneCase struct {
	name    string
	params  distal.Params
	machine *machine.Machine
	req     request.Request
}

func tuneCases() ([]tuneCase, error) {
	var cases []tuneCase
	var errs []error
	add := func(name string, params distal.Params) func(*machine.Machine, request.Request, error) {
		return func(m *machine.Machine, req request.Request, err error) {
			cases = append(cases, tuneCase{name, params, m, req})
			errs = append(errs, err)
		}
	}
	cpu := distal.LassenCPU()
	// SUMMA, the algorithm examples/quickstart walks through, on 4x4 CPUs.
	add("summa", cpu)(algorithms.MatmulRequest(algorithms.SUMMA, algorithms.MatmulConfig{N: 1024, Procs: 16}))
	add("cannon", cpu)(algorithms.MatmulRequest(algorithms.Cannon, algorithms.MatmulConfig{N: 768, Procs: 9}))
	add("johnson", cpu)(algorithms.MatmulRequest(algorithms.Johnson, algorithms.MatmulConfig{N: 256, Procs: 8}))
	add("mttkrp", cpu)(algorithms.MTTKRPRequest(algorithms.HigherConfig{I: 64, J: 64, K: 64, L: 32, Procs: 8}))
	// examples/hierarchical: SUMMA on 2x8 GPUs, four per node.
	gpus := algorithms.MatmulConfig{GPU: true, ProcsPerNode: 4}
	add("hierarchical", distal.LassenGPU())(gpus.MachineFor(2, 8), algorithms.SummaRequest(512, 2, 8, 256), nil)
	return cases, errors.Join(errs...)
}

// TuneExamples auto-tunes the five example workloads with the given budget
// and seed and returns one row per workload. Winners never rank worse than
// the AutoSchedule baseline (the baseline is always a candidate); Verify
// turns a violation into an error.
func TuneExamples(budget int, seed int64) ([]TuneRow, error) {
	ctx := context.Background()
	cases, err := tuneCases()
	if err != nil {
		return nil, err
	}
	var rows []TuneRow
	for _, c := range cases {
		sess := distal.NewSession(&distal.Machine{M: c.machine}, distal.WithParams(c.params))
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
		plan, err := sess.Compile(ctx, c.req)
		if err != nil {
			return nil, fmt.Errorf("tune %s: hand schedule: %w", c.name, err)
		}
		hand, err := plan.Simulate(ctx)
		if err != nil {
			return nil, fmt.Errorf("tune %s: hand schedule: %w", c.name, err)
		}
		row.HandSec, row.HandOOM = hand.Time, hand.OOM
		rows = append(rows, row)
	}
	return rows, nil
}

// VerifyTune checks the tuner's core guarantee on example-workload rows:
// the winner's simulated makespan is no worse than the AutoSchedule
// baseline (where it exists) or the algorithm's hand-written schedule
// (which competes as a seed candidate). A reference schedule that exhausts memory
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
