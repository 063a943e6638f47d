// Package tune is DISTAL's schedule auto-tuner: an enumerative + beam
// search over the scheduling language's space of mapping programs, using
// the simulator's makespan as the objective. The paper treats schedules as
// first-class mapping programs and leaves automatic search as future work
// (§9); this package composes the pieces the rest of the system already
// provides — serializable schedule.Commands, a fast simulation oracle, and
// a plan cache — into that search.
//
// The search has two stages. Stage one enumerates machine-grid-compatible
// tilings (ordered selections of index variables divided by the grid's
// dimensions and distributed, owner-computes candidates first) and
// evaluates each tiling's base schedule. Stage two takes the best Beam
// tilings and refines them with sequential-step pipelines: a remaining
// variable divided into steps, optionally rotated by the distributed
// variables (Cannon-style systolic communication), with per-tensor
// communicate placements. Candidates are generated as canonical schedule
// command text, legality-checked against the scheduling language once, when
// they are generated, deduplicated by that text, and evaluated concurrently
// over a bounded worker pool. Caller seeds are parsed and canonicalized
// before they compete.
//
// The tuner is deterministic: for a fixed statement, machine, seed, and
// budget it generates the same candidates in the same order, samples
// overflow with a seeded RNG, and ranks results by (OOM, makespan,
// schedule text) — so the leaderboard is identical regardless of worker
// count or scheduling of the evaluation goroutines.
package tune

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"distal/internal/ir"
	"distal/internal/schedule"
)

// Metrics is what the oracle reports for one evaluated candidate. It
// mirrors the simulator's Result plus plan-cache provenance.
type Metrics struct {
	MakespanSec  float64
	GFlops       float64
	Flops        float64
	Copies       int64
	IntraBytes   int64
	InterBytes   int64
	PeakMemBytes int64
	OOM          bool
	PlanKey      string
	Cached       bool
}

// Oracle evaluates one candidate schedule (command text) against the
// tuner's objective. Implementations must be safe for concurrent calls and
// deterministic in everything Better consults (makespan, OOM): the
// leaderboard's determinism is exactly the oracle's.
type Oracle interface {
	Evaluate(ctx context.Context, scheduleText string) (Metrics, error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(ctx context.Context, scheduleText string) (Metrics, error)

// Evaluate implements Oracle.
func (f OracleFunc) Evaluate(ctx context.Context, s string) (Metrics, error) { return f(ctx, s) }

// Input names the workload being tuned.
type Input struct {
	// Stmt is the tensor index notation statement.
	Stmt *ir.Assignment
	// Extents maps every index variable to its concrete extent
	// (ir.Assignment.VarExtents over the request's shapes).
	Extents map[string]int
	// Grid is the machine's leaf grid.
	Grid []int
}

// Options bounds one tuning run.
type Options struct {
	// Budget is the maximum number of candidates evaluated (compiled +
	// simulated), seeds included. Default 64. When the generated space
	// exceeds the budget, the overflow is sampled with the seeded RNG.
	Budget int
	// Beam is how many top-ranked tilings stage two refines. Default 4.
	Beam int
	// Seed drives overflow sampling. Two runs with equal seed and budget
	// evaluate the same candidates. Default 0.
	Seed int64
	// Workers bounds concurrent oracle evaluations. Default
	// min(GOMAXPROCS, 8). The leaderboard does not depend on it.
	Workers int
	// KeepTop is the leaderboard length. Default 10.
	KeepTop int
	// Seeds are extra candidate schedules evaluated before any generated
	// one and never sampled away (the AutoSchedule baseline, a
	// hand-written schedule to beat). Illegal seeds are counted and
	// dropped.
	Seeds []string
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 64
	}
	if o.Beam <= 0 {
		o.Beam = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.KeepTop <= 0 {
		o.KeepTop = 10
	}
	return o
}

// Candidate is one evaluated schedule.
type Candidate struct {
	Schedule string
	Metrics  Metrics
}

// Stats counts what one tuning run did.
type Stats struct {
	// Generated counts candidates the space emitted (seeds included).
	Generated int
	// Illegal counts candidates rejected by the scheduling language before
	// compilation.
	Illegal int
	// Deduped counts candidates dropped as textual duplicates.
	Deduped int
	// Evaluated counts oracle calls (compile + simulate).
	Evaluated int
	// Failed counts evaluations the oracle rejected (compile or execution
	// errors); failed candidates do not rank.
	Failed int
}

// Result is a tuning run's outcome: the winner and the ranked leaderboard.
type Result struct {
	Best        Candidate
	Leaderboard []Candidate
	Stats       Stats
}

// Better ranks two evaluated candidates: non-OOM before OOM, then lower
// makespan, then lexicographic schedule text (the deterministic tie-break).
func Better(a, b Candidate) bool {
	if a.Metrics.OOM != b.Metrics.OOM {
		return !a.Metrics.OOM
	}
	if a.Metrics.MakespanSec != b.Metrics.MakespanSec {
		return a.Metrics.MakespanSec < b.Metrics.MakespanSec
	}
	return a.Schedule < b.Schedule
}

type outcome struct {
	cand Candidate
	err  error
}

type tuner struct {
	sp     *Space
	oracle Oracle
	opts   Options
	rng    *rand.Rand
	seen   map[string]bool
	stats  Stats
	ranked []Candidate
}

// Tune searches the schedule space of the input and returns the ranked
// result. The context cancels in-flight evaluations; a canceled run returns
// the context's error.
func Tune(ctx context.Context, in Input, oracle Oracle, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	sp, err := NewSpace(in.Stmt, in.Extents, in.Grid)
	if err != nil {
		return nil, err
	}
	t := &tuner{
		sp:     sp,
		oracle: oracle,
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		seen:   map[string]bool{},
	}

	// Seeds run first and are never sampled away; they raise the effective
	// budget if the caller passed more seeds than budget.
	seeds := t.admitSeeds(opts.Seeds)
	budget := opts.Budget
	if budget < len(seeds) {
		budget = len(seeds)
	}
	if err := t.evalAll(ctx, seeds); err != nil {
		return nil, err
	}

	// Stage one: base tilings. Half the remaining budget when refinements
	// may follow, everything otherwise.
	tilings := sp.Tilings()
	byText := make(map[string]*Tiling, len(tilings))
	for _, tl := range tilings {
		byText[tl.Text()] = tl
	}
	bases := t.admit(tilingTexts(tilings))
	remaining := budget - t.stats.Evaluated
	stage1 := remaining
	if remaining > 2 {
		stage1 = (remaining + 1) / 2
	}
	if err := t.evalAll(ctx, t.sample(bases, stage1)); err != nil {
		return nil, err
	}

	// Stage two: refine the best Beam tilings with pipelines.
	var refs []string
	for _, c := range t.top(byText, opts.Beam) {
		refs = append(refs, t.admit(sp.Refinements(c))...)
	}
	if err := t.evalAll(ctx, t.sample(refs, budget-t.stats.Evaluated)); err != nil {
		return nil, err
	}

	// Fold in the candidates the generator built but its own legality gate
	// refused, so Generated/Illegal report the whole space that was tried.
	t.stats.Generated += sp.Rejected()
	t.stats.Illegal += sp.Rejected()

	if len(t.ranked) == 0 {
		return nil, fmt.Errorf("tune: no candidate evaluated successfully (%d generated, %d illegal, %d failed)",
			t.stats.Generated, t.stats.Illegal, t.stats.Failed)
	}
	sort.SliceStable(t.ranked, func(i, j int) bool { return Better(t.ranked[i], t.ranked[j]) })
	board := t.ranked
	if len(board) > opts.KeepTop {
		board = board[:opts.KeepTop]
	}
	return &Result{
		Best:        board[0],
		Leaderboard: append([]Candidate(nil), board...),
		Stats:       t.stats,
	}, nil
}

func tilingTexts(ts []*Tiling) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Text()
	}
	return out
}

// admitSeeds parses and canonicalizes the caller's seed texts, counting the
// illegal ones, then admits the canonical texts.
func (t *tuner) admitSeeds(seeds []string) []string {
	texts := make([]string, 0, len(seeds))
	for _, c := range seeds {
		if c == "" {
			continue
		}
		if cs, err := schedule.Parse(c); err == nil {
			if text, ok := t.sp.canonicalize(cs); ok {
				texts = append(texts, text)
				continue
			}
		}
		t.stats.Generated++
		t.stats.Illegal++
	}
	return t.admit(texts)
}

// admit counts canonical candidate texts — the space emits nothing else —
// and drops the ones already seen, updating the stats. Order is preserved.
func (t *tuner) admit(cands []string) []string {
	var out []string
	for _, text := range cands {
		t.stats.Generated++
		if t.seen[text] {
			t.stats.Deduped++
			continue
		}
		t.seen[text] = true
		out = append(out, text)
	}
	return out
}

// sample bounds cands to n deterministically: the head half is kept in
// generation (heuristic) order, the tail is drawn from the rest by the
// seeded RNG. Sampling consumes RNG state even across stages, so one
// (seed, budget) pair fixes the whole run.
func (t *tuner) sample(cands []string, n int) []string {
	if n <= 0 {
		return nil
	}
	if len(cands) <= n {
		return cands
	}
	keep := n / 2
	out := append([]string(nil), cands[:keep]...)
	rest := append([]string(nil), cands[keep:]...)
	t.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(out, rest[:n-keep]...)
}

// evalAll runs the oracle over cands on the bounded worker pool and folds
// successful outcomes into the ranking. Results are collected positionally,
// so worker interleaving cannot affect anything downstream.
func (t *tuner) evalAll(ctx context.Context, cands []string) error {
	if len(cands) == 0 {
		return ctx.Err()
	}
	outs := make([]outcome, len(cands))
	var wg sync.WaitGroup
	next := make(chan int)
	workers := t.opts.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				m, err := t.oracle.Evaluate(ctx, cands[i])
				outs[i] = outcome{cand: Candidate{Schedule: cands[i], Metrics: m}, err: err}
			}
		}()
	}
	for i := range cands {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, o := range outs {
		t.stats.Evaluated++
		if o.err != nil {
			t.stats.Failed++
			continue
		}
		t.ranked = append(t.ranked, o.cand)
	}
	return nil
}

// top returns the tilings behind the best-ranked base candidates evaluated
// so far, at most n, in rank order.
func (t *tuner) top(byText map[string]*Tiling, n int) []*Tiling {
	ranked := append([]Candidate(nil), t.ranked...)
	sort.SliceStable(ranked, func(i, j int) bool { return Better(ranked[i], ranked[j]) })
	var out []*Tiling
	for _, c := range ranked {
		if tl, ok := byText[c.Schedule]; ok {
			out = append(out, tl)
			if len(out) == n {
				break
			}
		}
	}
	return out
}
