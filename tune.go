package distal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distal/internal/request"
	"distal/internal/tune"
)

// DefaultTuneBudget is the candidate budget of a Tune run that does not
// set one — shared by TuneOptions and the /v1/tune wire default, so an
// omitted budget means the same search everywhere.
const DefaultTuneBudget = 64

// TuneOptions bounds one Session.Tune run. The zero value asks for the
// defaults (DefaultTuneBudget candidates, beam 4, seed 0, leaderboard of
// 10).
type TuneOptions struct {
	// Budget is the maximum number of candidate schedules evaluated
	// (compiled through the plan cache and simulated), the AutoSchedule
	// baseline included. 0 means DefaultTuneBudget.
	Budget int
	// Beam is how many top-ranked tilings the second search stage refines
	// with sequential-step pipelines.
	Beam int
	// Seed drives overflow sampling when the candidate space exceeds the
	// budget: equal seed and budget evaluate the same candidates.
	Seed int64
	// Workers bounds concurrent evaluations; the result does not depend on
	// it. Default min(GOMAXPROCS, 8).
	Workers int
	// KeepTop is the leaderboard length.
	KeepTop int
}

// TunedCandidate is one leaderboard entry: a schedule and its simulated
// metrics under the session's cost model.
type TunedCandidate struct {
	// Schedule is the candidate in serializable command text form; feed it
	// back through Request.Schedule to recompile anywhere.
	Schedule string
	// MakespanSec is the simulated makespan, the tuner's objective.
	MakespanSec  float64
	GFlops       float64
	Copies       int64
	IntraBytes   int64
	InterBytes   int64
	PeakMemBytes int64
	OOM          bool
	// PlanKey identifies the candidate's compiled plan in the cache.
	PlanKey string
}

// TuneResult is what Session.Tune found.
type TuneResult struct {
	// Best is the winning plan, compiled and resident in the session's
	// plan cache.
	Best *Plan
	// Winner is the leaderboard entry behind Best.
	Winner TunedCandidate
	// Baseline is the AutoSchedule heuristic's entry, always evaluated, so
	// callers can report the tuner's improvement. Winner.MakespanSec <=
	// Baseline.MakespanSec whenever the baseline is legal for the workload
	// and does not exhaust memory (a non-OOM winner outranks a faster OOM
	// baseline by design).
	Baseline *TunedCandidate
	// Leaderboard ranks the evaluated candidates best-first (at most
	// KeepTop).
	Leaderboard []TunedCandidate
	// Generated, Illegal, Deduped, Evaluated, and Failed count the run:
	// candidates emitted by the generator, rejected by the scheduling
	// language before compile, dropped as duplicates, evaluated, and
	// failed in compile/simulate.
	Generated, Illegal, Deduped, Evaluated, Failed int
	// Elapsed is the wall time of the search.
	Elapsed time.Duration
}

// Tune searches the schedule space of the request for the schedule with the
// lowest simulated makespan under the session's cost model. The request
// names the workload exactly as Compile does, except that Request.Schedule
// is not applied but — when non-empty — entered as a candidate, so a
// hand-written schedule competes against the generated ones. The
// AutoSchedule baseline always competes.
//
// Candidates compile through the session's plan cache (tuning a workload
// warms the cache with every candidate evaluated) and simulate concurrently
// over a bounded worker pool. For a fixed request, machine, seed, and
// budget the leaderboard is deterministic, independent of Workers and
// GOMAXPROCS. Cancellation of ctx aborts the search with KindCanceled.
func (s *Session) Tune(ctx context.Context, req Request, opts TuneOptions) (*TuneResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "tune", err)
	}
	if len(req.Stmts) > 0 {
		return nil, wrapErr(KindParse, "tune", errors.New("tuning takes one statement"))
	}
	in, err := request.Unscheduled(req, s.machine.M)
	if err != nil {
		return nil, wrapErr(KindParse, "tune", err)
	}
	extents, err := in.Stmt.VarExtents(req.Shapes)
	if err != nil {
		return nil, wrapErr(KindParse, "tune", err)
	}
	grid := s.machine.M.LeafGrid().Dims

	var seeds []string
	baselineText := ""
	if cs, err := request.AutoScheduleCommands(in.Stmt, grid); err == nil {
		baselineText = cs.String()
		seeds = append(seeds, baselineText)
	}
	if req.Schedule != "" {
		seeds = append(seeds, req.Schedule)
	}

	// evaluated records every successful oracle result by schedule text, so
	// the baseline's metrics can be reported without re-simulating it (it
	// always ran as the first seed).
	var evalMu sync.Mutex
	evaluated := map[string]tune.Metrics{}
	oracle := tune.OracleFunc(func(ctx context.Context, scheduleText string) (tune.Metrics, error) {
		r := req
		r.Schedule = scheduleText
		plan, err := s.Compile(ctx, r)
		if err != nil {
			return tune.Metrics{}, err
		}
		res, err := plan.Simulate(ctx)
		if err != nil {
			return tune.Metrics{}, err
		}
		m := tune.Metrics{
			MakespanSec:  res.Time,
			GFlops:       res.GFlopsPerSec(),
			Flops:        res.Flops,
			Copies:       res.Copies,
			IntraBytes:   res.IntraBytes,
			InterBytes:   res.InterBytes,
			PeakMemBytes: res.PeakMemBytes,
			OOM:          res.OOM,
			PlanKey:      plan.Key(),
			Cached:       plan.Stats().Cached,
		}
		evalMu.Lock()
		evaluated[scheduleText] = m
		evalMu.Unlock()
		return m, nil
	})

	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultTuneBudget
	}
	start := time.Now()
	tr, err := tune.Tune(ctx, tune.Input{Stmt: in.Stmt, Extents: extents, Grid: grid}, oracle, tune.Options{
		Budget:  budget,
		Beam:    opts.Beam,
		Seed:    opts.Seed,
		Workers: opts.Workers,
		KeepTop: opts.KeepTop,
		Seeds:   seeds,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, wrapErr(KindCanceled, "tune", ctx.Err())
		}
		return nil, wrapErr(KindSchedule, "tune", err)
	}

	winnerReq := req
	winnerReq.Schedule = tr.Best.Schedule
	best, err := s.Compile(ctx, winnerReq)
	if err != nil {
		return nil, err
	}

	out := &TuneResult{
		Best:      best,
		Winner:    fromTuneCandidate(tr.Best),
		Generated: tr.Stats.Generated,
		Illegal:   tr.Stats.Illegal,
		Deduped:   tr.Stats.Deduped,
		Evaluated: tr.Stats.Evaluated,
		Failed:    tr.Stats.Failed,
		Elapsed:   time.Since(start),
	}
	for _, c := range tr.Leaderboard {
		out.Leaderboard = append(out.Leaderboard, fromTuneCandidate(c))
	}
	if baselineText != "" {
		// The baseline ran as the first seed; its metrics were recorded
		// then (absent only if its compile/simulate failed).
		if base, ok := evaluated[baselineText]; ok {
			bc := fromTuneCandidate(tune.Candidate{Schedule: baselineText, Metrics: base})
			out.Baseline = &bc
		}
	}
	return out, nil
}

func fromTuneCandidate(c tune.Candidate) TunedCandidate {
	return TunedCandidate{
		Schedule:     c.Schedule,
		MakespanSec:  c.Metrics.MakespanSec,
		GFlops:       c.Metrics.GFlops,
		Copies:       c.Metrics.Copies,
		IntraBytes:   c.Metrics.IntraBytes,
		InterBytes:   c.Metrics.InterBytes,
		PeakMemBytes: c.Metrics.PeakMemBytes,
		OOM:          c.Metrics.OOM,
		PlanKey:      c.Metrics.PlanKey,
	}
}

// Speedup reports the tuner's improvement over the AutoSchedule baseline as
// baseline/winner makespan (1.0 = matched, >1 = faster), or 0 when no
// baseline was evaluated.
func (r *TuneResult) Speedup() float64 {
	if r.Baseline == nil || r.Winner.MakespanSec <= 0 {
		return 0
	}
	return r.Baseline.MakespanSec / r.Winner.MakespanSec
}

// String summarizes the result for CLI display.
func (r *TuneResult) String() string {
	s := fmt.Sprintf("tuned %d candidates (%d generated, %d illegal, %d duplicate, %d failed) in %s\nwinner: %s\n  makespan %.6fs",
		r.Evaluated, r.Generated, r.Illegal, r.Deduped, r.Failed, r.Elapsed.Round(time.Millisecond),
		r.Winner.Schedule, r.Winner.MakespanSec)
	if r.Baseline != nil {
		s += fmt.Sprintf(" (AutoSchedule baseline %.6fs, %.2fx)", r.Baseline.MakespanSec, r.Speedup())
	}
	return s
}
