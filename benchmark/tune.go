package main

import (
	"context"
	"fmt"
	"time"

	"distal"
	"distal/internal/ir"
	"distal/internal/schedule"
)

const (
	tuneBudget     = 64
	tuneN          = 8192
	tuneGoldenSeed = 1
	// tuneWarmups is tune-gemm's warm-up: five tunes, not defaultWarmups
	// operations — one op is already 64 compile+simulate cycles.
	tuneWarmups = 5
)

func tuneRequest() distal.Request {
	return distal.Request{
		Stmt:   "A(i,j) = B(i,k) * C(k,j)",
		Shapes: map[string][]int{"A": {tuneN, tuneN}, "B": {tuneN, tuneN}, "C": {tuneN, tuneN}},
	}
}

// tuneSession is the fresh session every tune runs on: the write side of the
// plan cache, where every candidate is a miss.
func tuneSession() *distal.Session {
	return distal.NewSession(distal.NewMachine(distal.CPU, 8, 8))
}

func tuneOnce(ctx context.Context, seed int64) (*distal.TuneResult, error) {
	return tuneSession().Tune(ctx, tuneRequest(), distal.TuneOptions{Budget: tuneBudget, Seed: seed})
}

// tuneOutcome is what one tune must reproduce exactly.
type tuneOutcome struct {
	winner             string
	makespan, baseline float64
	evaluated          int
	generated, illegal int
}

func outcomeOf(r *distal.TuneResult) tuneOutcome {
	o := tuneOutcome{winner: r.Winner.Schedule, makespan: r.Winner.MakespanSec,
		evaluated: r.Evaluated, generated: r.Generated, illegal: r.Illegal}
	if r.Baseline != nil {
		o.baseline = r.Baseline.MakespanSec
	}
	return o
}

// tuneWorkload is tune-gemm: in-process Session.Tune on a fresh session.
type tuneWorkload struct {
	seed int64
	want tuneOutcome
}

// prepare fixes the expected outcome. The seed-independent part comes from
// the golden file; the winner comes from the golden file at its seed and, at
// any other seed, from a reference tune whose winner is then re-derived
// independently: its schedule text is compiled and simulated on its own and
// must price to the makespan the tuner reported, and it must not lose to the
// AutoSchedule baseline.
func (w *tuneWorkload) prepare(seed int64) error {
	w.seed = seed
	g, err := loadTuneGolden()
	if err != nil {
		return err
	}
	ctx := context.Background()
	r, err := tuneOnce(ctx, seed)
	if err != nil {
		return err
	}
	w.want = outcomeOf(r)
	if w.want.generated != g.Generated || w.want.illegal != g.Illegal || w.want.baseline != g.BaselineMakespanS {
		return fmt.Errorf("tune: generated/illegal/baseline %d/%d/%v, golden %d/%d/%v",
			w.want.generated, w.want.illegal, w.want.baseline, g.Generated, g.Illegal, g.BaselineMakespanS)
	}
	if seed == g.Seed {
		gold := tuneOutcome{winner: g.Winner, makespan: g.WinnerMakespanS, baseline: g.BaselineMakespanS,
			evaluated: g.Evaluated, generated: g.Generated, illegal: g.Illegal}
		if w.want != gold {
			return fmt.Errorf("tune: seed %d gave %+v, golden %+v", seed, w.want, gold)
		}
	}
	req := tuneRequest()
	req.Schedule = w.want.winner
	plan, err := tuneSession().Compile(ctx, req)
	if err != nil {
		return fmt.Errorf("tune: winner schedule does not compile: %w", err)
	}
	res, err := plan.Simulate(ctx)
	if err != nil {
		return err
	}
	if res.Time != w.want.makespan {
		return fmt.Errorf("tune: winner re-simulated to %v s, the tuner reported %v s", res.Time, w.want.makespan)
	}
	if !r.Winner.OOM && r.Baseline != nil && !r.Baseline.OOM && w.want.makespan > w.want.baseline {
		return fmt.Errorf("tune: winner %v s loses to the baseline %v s", w.want.makespan, w.want.baseline)
	}
	return nil
}

func (w *tuneWorkload) setup(int) (instance, error) {
	inst := &tuneInstance{w: w}
	for i := 0; i < 1+tuneWarmups; i++ {
		if _, err := inst.op(opCtx{}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

type tuneInstance struct {
	w *tuneWorkload
	// last is the most recent op's result and session, for layers.
	last     *distal.TuneResult
	lastSess *distal.Session
}

func (t *tuneInstance) clients() int { return 1 }
func (t *tuneInstance) cycle() int   { return 1 }
func (t *tuneInstance) close()       {}

func (t *tuneInstance) op(c opCtx) (time.Duration, error) {
	var (
		sess *distal.Session
		r    *distal.TuneResult
	)
	t0 := time.Now()
	err := c.span("tune", func() (err error) {
		sess = tuneSession()
		r, err = sess.Tune(context.Background(), tuneRequest(), distal.TuneOptions{Budget: tuneBudget, Seed: t.w.seed})
		return
	})
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if got := outcomeOf(r); got != t.w.want {
		return lat, fmt.Errorf("tune: got %+v, want %+v", got, t.w.want)
	}
	t.last, t.lastSess = r, sess
	return lat, nil
}

func (t *tuneInstance) layers(lc *layerCtx) error {
	r := t.last
	cs := t.lastSess.CacheStats()
	lc.out["session.cache_hits"] = float64(cs.Hits)
	lc.out["session.cache_misses"] = float64(cs.Misses)
	lc.out["tune.evaluated"] = float64(r.Evaluated)
	lc.out["tune.generated"] = float64(r.Generated)
	lc.out["tune.illegal"] = float64(r.Illegal)
	lc.out["tune.winner_makespan_s"] = r.Winner.MakespanSec
	lc.out["tune.candidates_per_s"] = float64(r.Evaluated) * ratio(1000, lc.untraced.p50)

	// One candidate's text-side cost: statement parse plus schedule parse
	// and application, which every candidate pays before its compile.
	stmtText, schedText := tuneRequest().Stmt, r.Winner.Schedule
	parse, err := timed(lc.budget/4, 50, 2000, func() error {
		stmt, err := ir.Parse(stmtText)
		if err != nil {
			return err
		}
		_, err = schedule.FromText(stmt, schedText)
		return err
	})
	if err != nil {
		return err
	}
	lc.out["schedule.parse_us"] = 1000 * median(parse)

	// One candidate's miss: parse + cold compile + store on a fresh session.
	req := tuneRequest()
	req.Schedule = schedText
	miss, err := timed(lc.budget/4, 5, 200, func() error {
		_, err := tuneSession().Compile(context.Background(), req)
		return err
	})
	if err != nil {
		return err
	}
	lc.out["session.miss_ms"] = median(miss)
	return nil
}
