package tune

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"distal/internal/ir"
	"distal/internal/schedule"
)

func gemmInput(t *testing.T, n int, grid ...int) Input {
	t.Helper()
	stmt, err := ir.Parse("A(i,j) = B(i,k) * C(k,j)")
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		Stmt:    stmt,
		Extents: map[string]int{"i": n, "j": n, "k": n},
		Grid:    grid,
	}
}

// fakeOracle prices a schedule deterministically from its text, so search
// behavior can be tested without the compiler.
func fakeOracle() Oracle {
	return OracleFunc(func(_ context.Context, text string) (Metrics, error) {
		h := fnv.New64a()
		h.Write([]byte(text))
		return Metrics{MakespanSec: float64(h.Sum64()%100000) / 1e6}, nil
	})
}

// TestGeneratorRoundTrips checks the satellite invariant: every candidate
// the space emits round-trips through schedule.Parse(String(s)) — parsing
// the text and re-rendering reproduces it exactly — and is legal for the
// statement.
func TestGeneratorRoundTrips(t *testing.T) {
	in := gemmInput(t, 256, 4, 4)
	sp, err := NewSpace(in.Stmt, in.Extents, in.Grid)
	if err != nil {
		t.Fatal(err)
	}
	tilings := sp.Tilings()
	if len(tilings) == 0 {
		t.Fatal("no tilings generated")
	}
	var texts []string
	for _, tl := range tilings {
		texts = append(texts, tl.Text())
		texts = append(texts, sp.Refinements(tl)...)
	}
	if len(texts) < 20 {
		t.Fatalf("suspiciously small space: %d candidates", len(texts))
	}
	for _, text := range texts {
		cs, err := schedule.Parse(text)
		if err != nil {
			t.Fatalf("candidate does not parse: %v\n%s", err, text)
		}
		if cs.String() != text {
			t.Fatalf("candidate does not round-trip:\n  emitted: %s\n  reparsed: %s", text, cs.String())
		}
		s := schedule.New(in.Stmt).Apply(cs)
		if err := s.Err(); err != nil {
			t.Fatalf("candidate is illegal: %v\n%s", err, text)
		}
		if s.Commands().String() != text {
			t.Fatalf("candidate text is not canonical:\n  emitted: %s\n  applied: %s", text, s.Commands().String())
		}
	}
}

// TestEmittedTextsCanonical: the tuner counts and deduplicates generated
// texts without re-parsing them, so every text Tilings and Refinements emit
// must already be canonical: equal to canonicalize(Parse(text)). Covered on
// GEMM over 2-D and 3-D grids (tune-gemm's 8x8 at n = 8192 among them) and
// MTTKRP.
func TestEmittedTextsCanonical(t *testing.T) {
	mttkrp, err := ir.Parse("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []Input{
		gemmInput(t, 256, 4, 4),
		gemmInput(t, 8192, 8, 8),
		gemmInput(t, 64, 2, 2, 2),
		{Stmt: mttkrp, Extents: map[string]int{"i": 16, "j": 16, "k": 16, "l": 8}, Grid: []int{2, 2, 2}},
	} {
		sp, err := NewSpace(in.Stmt, in.Extents, in.Grid)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tl := range sp.Tilings() {
			for _, text := range append([]string{tl.Text()}, sp.Refinements(tl)...) {
				cs, err := schedule.Parse(text)
				if err != nil {
					t.Fatalf("%s on %v: candidate does not parse: %v\n%s", in.Stmt, in.Grid, err, text)
				}
				if canon, ok := sp.canonicalize(cs); !ok || canon != text {
					t.Fatalf("%s on %v: emitted text is not canonical:\n emitted: %s\n   canon: %s (legal %v)", in.Stmt, in.Grid, text, canon, ok)
				}
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s on %v: no candidates", in.Stmt, in.Grid)
		}
	}
}

// TestTilingsDeterministicAndGridCompatible checks tiling enumeration:
// deterministic order, owner-computes first, and every divide factor
// matching its machine dimension with no ragged tiles.
func TestTilingsDeterministicAndGridCompatible(t *testing.T) {
	in := gemmInput(t, 256, 4, 2)
	sp, err := NewSpace(in.Stmt, in.Extents, in.Grid)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sp.Tilings(), sp.Tilings()
	if len(a) != len(b) {
		t.Fatalf("tiling count differs across calls: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text() != b[i].Text() {
			t.Fatalf("tiling order differs at %d", i)
		}
	}
	// Owner-computes (output vars i,j only) selections come first.
	first := a[0]
	if sp.nonOutputCount(first.sel) != 0 {
		t.Fatalf("first tiling distributes non-output vars: %v", first.sel)
	}
	for _, tl := range a {
		for d, v := range tl.sel {
			if in.Extents[v]%in.Grid[d] != 0 {
				t.Fatalf("tiling %v divides %s (extent %d) by incompatible grid dim %d",
					tl.sel, v, in.Extents[v], in.Grid[d])
			}
		}
	}
	// 3 vars with compatible extents over a 2-D grid: 3*2 ordered pairs.
	if len(a) != 6 {
		t.Fatalf("expected 6 tilings for 3 vars over a 2-D grid, got %d", len(a))
	}
}

// TestTuneDeterministicUnderWorkers runs the full search with a fake oracle
// under different worker counts and GOMAXPROCS: identical leaderboards.
func TestTuneDeterministicUnderWorkers(t *testing.T) {
	in := gemmInput(t, 256, 4, 4)
	run := func(workers int) *Result {
		res, err := Tune(context.Background(), in, fakeOracle(), Options{
			Budget: 30, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	old := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(old)
	for _, w := range []int{2, 7, 16} {
		got := run(w)
		if len(got.Leaderboard) != len(ref.Leaderboard) {
			t.Fatalf("workers=%d: %d entries, want %d", w, len(got.Leaderboard), len(ref.Leaderboard))
		}
		for i := range ref.Leaderboard {
			if got.Leaderboard[i] != ref.Leaderboard[i] {
				t.Fatalf("workers=%d: entry %d differs:\n%+v\n%+v", w, i, got.Leaderboard[i], ref.Leaderboard[i])
			}
		}
		if got.Stats != ref.Stats {
			t.Fatalf("workers=%d: stats %+v, want %+v", w, got.Stats, ref.Stats)
		}
	}
}

// TestTuneBudgetAndSeeds checks budget accounting: seeds always run, the
// evaluated count never exceeds the effective budget, and duplicates are
// deduplicated by canonical text (a seed equal to a generated candidate
// evaluates once).
func TestTuneBudgetAndSeeds(t *testing.T) {
	in := gemmInput(t, 256, 4, 4)
	sp, err := NewSpace(in.Stmt, in.Extents, in.Grid)
	if err != nil {
		t.Fatal(err)
	}
	base := sp.Tilings()[0].Text()
	var calls []string
	oracle := OracleFunc(func(_ context.Context, text string) (Metrics, error) {
		calls = append(calls, text)
		return Metrics{MakespanSec: 1}, nil
	})
	res, err := Tune(context.Background(), in, oracle, Options{
		Budget: 8, Seed: 0, Workers: 1,
		Seeds: []string{base, "  " + base, "definitely not a schedule("},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated != 8 {
		t.Fatalf("evaluated %d, want the full budget of 8", res.Stats.Evaluated)
	}
	if res.Stats.Illegal != 1 {
		t.Fatalf("illegal %d, want 1 (the malformed seed)", res.Stats.Illegal)
	}
	// The whitespace variant canonicalizes to the same text: one dedup from
	// the seeds, and the base tiling must not run again in stage one.
	if res.Stats.Deduped < 2 {
		t.Fatalf("deduped %d, want >= 2 (seed duplicate + stage-one duplicate)", res.Stats.Deduped)
	}
	seen := map[string]bool{}
	for _, c := range calls {
		if seen[c] {
			t.Fatalf("candidate evaluated twice: %s", c)
		}
		seen[c] = true
	}
	if !seen[base] {
		t.Fatal("seed candidate never evaluated")
	}
}

// TestTuneFailedCandidatesDoNotRank: oracle failures are counted and
// excluded; the best survivor wins.
func TestTuneFailedCandidatesDoNotRank(t *testing.T) {
	in := gemmInput(t, 256, 2, 2)
	oracle := OracleFunc(func(_ context.Context, text string) (Metrics, error) {
		if strings.Contains(text, "rotate") {
			return Metrics{}, fmt.Errorf("synthetic failure")
		}
		return Metrics{MakespanSec: float64(len(text))}, nil
	})
	res, err := Tune(context.Background(), in, oracle, Options{Budget: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed == 0 {
		t.Fatal("expected some synthetic failures")
	}
	for _, c := range res.Leaderboard {
		if strings.Contains(c.Schedule, "rotate") {
			t.Fatalf("failed candidate ranked: %s", c.Schedule)
		}
	}
}

// TestTuneCancellation: a canceled context aborts the search with the
// context's error.
func TestTuneCancellation(t *testing.T) {
	in := gemmInput(t, 256, 4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	oracle := OracleFunc(func(ctx context.Context, _ string) (Metrics, error) {
		n++
		if n == 3 {
			cancel()
		}
		return Metrics{MakespanSec: 1}, ctx.Err()
	})
	_, err := Tune(ctx, in, oracle, Options{Budget: 50, Workers: 1})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("expected cancellation error, got %v", err)
	}
}

// TestBetterRanking: OOM ranks last, ties break on schedule text.
func TestBetterRanking(t *testing.T) {
	a := Candidate{Schedule: "a", Metrics: Metrics{MakespanSec: 2}}
	b := Candidate{Schedule: "b", Metrics: Metrics{MakespanSec: 1, OOM: true}}
	c := Candidate{Schedule: "c", Metrics: Metrics{MakespanSec: 2}}
	if !Better(a, b) {
		t.Fatal("non-OOM must beat OOM regardless of makespan")
	}
	if !Better(a, c) || Better(c, a) {
		t.Fatal("equal makespans must tie-break on schedule text")
	}
}
