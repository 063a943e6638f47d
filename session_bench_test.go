package distal

import "testing"

// planCacheRequest is the GEMM workload the plan-cache benchmark measures:
// owner-computes over a 4x4 grid with broadcast-replicated inputs and a
// sequential k chunking, so the plan has many launch points to analyze. A
// cold compile-and-simulate pays the full per-point bounds analysis during
// compilation; a cache hit reuses the materialized plan and only walks the
// task graph.
func planCacheRequest() Request {
	const n = 1024
	return Request{
		Stmt:    gemmStmt,
		Shapes:  map[string][]int{"A": {n, n}, "B": {n, n}, "C": {n, n}},
		Formats: map[string]string{"A": "xy->xy", "B": "xy->**", "C": "xy->**"},
		Schedule: "divide(i,io,ii,4) divide(j,jo,ji,4) reorder(io,jo,ii,ji) " +
			"distribute(io,jo) split(k,ko,ki,128) reorder(io,jo,ko,ii,ji,ki) " +
			"communicate(ko,B,C)",
	}
}

func planCacheMachine() *Machine { return NewMachine(CPU, 4, 4) }

// BenchmarkPlanCache compares compile-and-simulate with a cold plan cache
// (every iteration compiles) against a warm one (every iteration hits).
func BenchmarkPlanCache(b *testing.B) {
	req := planCacheRequest()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess := NewSession(planCacheMachine())
			if _, err := execute(sess, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sess := NewSession(planCacheMachine())
		if _, err := execute(sess, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := execute(sess, req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := sess.CacheStats()
		if st.Misses != 1 {
			b.Fatalf("warm loop recompiled: %+v", st)
		}
	})
}

// TestPlanCacheSpeedup asserts the property behind the cache's speedup, by
// counts rather than by wall clock: after one cold compile-and-simulate,
// warm ones of the same request never run the compiler again — each one is
// exactly one cache hit. BenchmarkPlanCache measures what that
// saves in time.
func TestPlanCacheSpeedup(t *testing.T) {
	req := planCacheRequest()
	sess := NewSession(planCacheMachine())
	if _, err := execute(sess, req); err != nil {
		t.Fatal(err)
	}
	cold := sess.CacheStats()
	if cold.Misses != 1 {
		t.Fatalf("cold execute: %+v, want exactly 1 miss", cold)
	}
	const warmRuns = 20
	for i := 0; i < warmRuns; i++ {
		if _, err := execute(sess, req); err != nil {
			t.Fatal(err)
		}
	}
	warm := sess.CacheStats()
	if warm.Misses != 1 || warm.Hits-cold.Hits != warmRuns {
		t.Fatalf("after %d warm executes: %+v (cold %+v), want misses 1 and hits +%d",
			warmRuns, warm, cold, warmRuns)
	}
}
