package distal

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// tuneBoard flattens a leaderboard to the fields determinism guarantees:
// schedule text and simulated makespan.
func tuneBoard(res *TuneResult) []TunedCandidate {
	out := make([]TunedCandidate, len(res.Leaderboard))
	for i, c := range res.Leaderboard {
		out[i] = TunedCandidate{Schedule: c.Schedule, MakespanSec: c.MakespanSec}
	}
	return out
}

// TestTuneSummaBeatsAutoSchedule pins the acceptance guarantee on the SUMMA
// workload: a modest budget finds a schedule at least as good as the
// AutoSchedule heuristic (which always competes as a seed), the winner's
// plan is resident in the cache under its reported key, and the makespan
// improves strictly (the k-pipeline beats one-shot broadcast on a 4x4
// grid).
func TestTuneSummaBeatsAutoSchedule(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 4, 4))
	req := Request{
		Stmt:   gemmStmt,
		Shapes: map[string][]int{"A": {1024, 1024}, "B": {1024, 1024}, "C": {1024, 1024}},
	}
	res, err := sess.Tune(context.Background(), req, TuneOptions{Budget: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == nil {
		t.Fatal("no AutoSchedule baseline evaluated")
	}
	if res.Winner.MakespanSec > res.Baseline.MakespanSec {
		t.Fatalf("winner %.9fs is worse than AutoSchedule %.9fs", res.Winner.MakespanSec, res.Baseline.MakespanSec)
	}
	if res.Winner.MakespanSec >= res.Baseline.MakespanSec {
		t.Errorf("expected a strict improvement on SUMMA, got winner %.9fs vs baseline %.9fs",
			res.Winner.MakespanSec, res.Baseline.MakespanSec)
	}
	if res.Best == nil || res.Best.Key() != res.Winner.PlanKey {
		t.Fatalf("Best plan key %q does not match winner %q", res.Best.Key(), res.Winner.PlanKey)
	}
	// The winning schedule recompiles to the same plan from cold.
	req.Schedule = res.Winner.Schedule
	fresh := NewSession(NewMachine(CPU, 4, 4))
	plan, err := fresh.Compile(context.Background(), req)
	if err != nil {
		t.Fatalf("winner schedule does not recompile: %v", err)
	}
	if plan.Key() != res.Winner.PlanKey {
		t.Fatalf("winner recompiled to key %q, want %q", plan.Key(), res.Winner.PlanKey)
	}
	if res.Evaluated > 64 {
		t.Fatalf("evaluated %d candidates, budget was 64", res.Evaluated)
	}
}

// TestTuneJohnsonBeatsHandSchedule covers the Johnson workload, where
// AutoSchedule is undefined (two output variables, three machine
// dimensions): the hand-written example schedule competes as a seed, so the
// winner is never worse than it — and the tuner must find Johnson's
// all-dimensions distribution on its own.
func TestTuneJohnsonBeatsHandSchedule(t *testing.T) {
	hand := "divide(i,io,ii,2) divide(j,jo,ji,2) divide(k,ko,ki,2) " +
		"reorder(io,jo,ko,ii,ji,ki) distribute(io,jo,ko) communicate(ko,A,B,C)"
	req := Request{
		Stmt:     gemmStmt,
		Shapes:   map[string][]int{"A": {256, 256}, "B": {256, 256}, "C": {256, 256}},
		Formats:  map[string]string{"A": "xy->xy0", "B": "xz->x0z", "C": "zy->0yz"},
		Schedule: hand,
	}
	sess := NewSession(NewMachine(CPU, 2, 2, 2))
	handRes, err := execute(sess, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Tune(context.Background(), req, TuneOptions{Budget: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline != nil {
		t.Fatalf("AutoSchedule should be undefined on a 3-D grid for GEMM, got baseline %q", res.Baseline.Schedule)
	}
	if res.Winner.MakespanSec > handRes.Time {
		t.Fatalf("winner %.9fs is worse than the hand schedule %.9fs", res.Winner.MakespanSec, handRes.Time)
	}
	// Without the seed, the generator still reaches a schedule at least as
	// good: the 3-D tiling is in its own space.
	unseeded := req
	unseeded.Schedule = ""
	res2, err := NewSession(NewMachine(CPU, 2, 2, 2)).Tune(context.Background(), unseeded, TuneOptions{Budget: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Winner.MakespanSec > handRes.Time {
		t.Fatalf("unseeded winner %.9fs is worse than the hand schedule %.9fs", res2.Winner.MakespanSec, handRes.Time)
	}
}

// TestTuneDeterministic pins the determinism invariant: same request, seed,
// and budget produce the identical leaderboard — across fresh sessions,
// different worker counts, and different GOMAXPROCS.
func TestTuneDeterministic(t *testing.T) {
	req := Request{
		Stmt:   gemmStmt,
		Shapes: map[string][]int{"A": {256, 256}, "B": {256, 256}, "C": {256, 256}},
	}
	run := func(workers int) *TuneResult {
		sess := NewSession(NewMachine(CPU, 4, 4))
		res, err := sess.Tune(context.Background(), req, TuneOptions{Budget: 40, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := tuneBoard(run(1))
	if len(ref) == 0 {
		t.Fatal("empty leaderboard")
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{2, 8} {
		got := tuneBoard(run(workers))
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: leaderboard length %d, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: leaderboard[%d] = %+v, want %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestTuneSeedChangesSampling checks the seed is live: with a budget far
// below the candidate space, the evaluated set (and its size bound) stays
// within budget, and equal seeds reproduce equal winners.
func TestTuneSeedChangesSampling(t *testing.T) {
	req := Request{
		Stmt:   gemmStmt,
		Shapes: map[string][]int{"A": {256, 256}, "B": {256, 256}, "C": {256, 256}},
	}
	run := func(seed int64) *TuneResult {
		sess := NewSession(NewMachine(CPU, 4, 4))
		res, err := sess.Tune(context.Background(), req, TuneOptions{Budget: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated > 12 {
			t.Fatalf("evaluated %d > budget 12", res.Evaluated)
		}
		return res
	}
	a1, a2 := run(3), run(3)
	if a1.Winner != a2.Winner {
		t.Fatalf("same seed, different winners:\n%+v\n%+v", a1.Winner, a2.Winner)
	}
}

// TestTuneRequestErrors covers the error surface: malformed statements are
// KindParse, and a canceled context surfaces as KindCanceled.
func TestTuneRequestErrors(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	_, err := sess.Tune(context.Background(), Request{Stmt: "not a statement"}, TuneOptions{})
	if KindOf(err) != KindParse || !strings.HasPrefix(err.Error(), "distal: tune: ") {
		t.Fatalf("bad statement: %v (kind %v), want a parse error of op tune", err, KindOf(err))
	}
	_, err = sess.Tune(context.Background(), chainRequest(16), TuneOptions{Budget: 4})
	if KindOf(err) != KindParse || err.Error() != "distal: tune: tuning takes one statement" {
		t.Fatalf("statement list: %v (kind %v), want a parse error saying tuning takes one statement", err, KindOf(err))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.Tune(ctx, gemmRequest(64), TuneOptions{})
	if KindOf(err) != KindCanceled {
		t.Fatalf("canceled ctx: kind %v, want canceled", KindOf(err))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled tune does not match context.Canceled: %v", err)
	}
}

// TestTuneHandSeedCompetes verifies a request's own schedule enters the
// race: with budget 1 the seeds are still all evaluated, and an unbeatable
// hand schedule wins.
func TestTuneHandSeedCompetes(t *testing.T) {
	sess := NewSession(NewMachine(CPU, 2, 2))
	req := gemmRequest(64) // carries a hand-written pipeline schedule
	res, err := sess.Tune(context.Background(), req, TuneOptions{Budget: 1, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Leaderboard {
		if c.Schedule == req.Schedule {
			found = true
		}
	}
	if !found {
		t.Fatalf("request schedule not on the leaderboard:\n%v", res.Leaderboard)
	}
}
