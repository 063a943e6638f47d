package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"distal/internal/legion"
	"distal/internal/machine"
	"distal/internal/schedule"
)

// TestRectTable: ids are dense and in first-appearance order, a repeated
// rect keeps its id across the table's growth, and rects copies the bounds
// out of the table.
func TestRectTable(t *testing.T) {
	var tab rectTable
	tab.reset(2)
	const n = 1000 // grows the table several times past minRectSlots
	for round := range 2 {
		for i := range n {
			lo, hi := []int{i * 1024, 0}, []int{(i + 1) * 1024, 4096}
			if id := tab.intern(lo, hi); id != int32(i) {
				t.Fatalf("round %d rect %d: id %d", round, i, id)
			}
		}
		if tab.n != n {
			t.Fatalf("round %d: %d rects numbered, want %d", round, tab.n, n)
		}
	}
	rects := tab.rects()
	if len(rects) != n || rects[7].Lo[0] != 7*1024 || rects[7].Hi[1] != 4096 {
		t.Fatalf("rects: %d rects, rect 7 is %v", len(rects), rects[7])
	}
	tab.ints[0] = -1
	if rects[0].Lo[0] != 0 {
		t.Fatal("rects aliases the table's bounds")
	}
	tab.reset(0)
	for range 3 {
		if id := tab.intern(nil, nil); id != 0 {
			t.Fatalf("a rank-0 rect got id %d, want 0", id)
		}
	}
	if len(tab.rects()) != 1 {
		t.Fatalf("rank 0: %d rects, want 1", tab.n)
	}
}

// referenceNumbering re-runs the bounds analysis of every point of every
// launch of c's plan, without the rect tables, and numbers each region's
// rects the straightforward way: a map keyed by the printed bounds, in
// first-appearance order (launch, point, tensor). It returns each launch's
// ids and each region's rects, printed.
func referenceNumbering(c *compiler, prog *legion.Program) ([][]int32, map[*legion.Region][]string) {
	nv := c.ev.NumVars()
	fixed, vals := make([]bool, nv), make([]int, nv)
	ivs := make([][]schedule.Interval, len(c.cuts))
	for g := range ivs {
		ivs[g] = make([]schedule.Interval, nv)
	}
	seqDims := make([]int, len(c.seqVars))
	for i, v := range c.seqVars {
		seqDims[i] = c.extents[v]
	}
	ids := make([][]int32, len(prog.Launches))
	number := map[*legion.Region]map[string]int32{}
	rects := map[*legion.Region][]string{}
	for li, l := range prog.Launches {
		if len(seqDims) > 0 {
			for i, x := range machine.NewGrid(seqDims...).Delinearize(li) {
				vals[c.seqIDs[i]] = x
			}
		}
		for i := range l.Domain.Size() {
			for d, x := range l.Domain.Delinearize(i) {
				vals[c.distIDs[d]] = x
			}
			for g := range c.cuts {
				for _, id := range c.cuts[g].addIDs {
					fixed[id] = true
				}
				c.ev.Eval(fixed, vals, ivs[g])
			}
			clear(fixed)
			for _, tp := range c.tensors {
				lo, hi := make([]int, len(tp.shape)), make([]int, len(tp.shape))
				tp.deriveBounds(ivs[tp.cutIdx], lo, hi)
				key := fmt.Sprint(lo, hi)
				if number[tp.region] == nil {
					number[tp.region] = map[string]int32{}
				}
				id, ok := number[tp.region][key]
				if !ok {
					id = int32(len(rects[tp.region]))
					number[tp.region][key] = id
					rects[tp.region] = append(rects[tp.region], key)
				}
				ids[li] = append(ids[li], id)
			}
		}
	}
	return ids, rects
}

// TestRectIDsMatchReference: under GOMAXPROCS 1, 2 and 8 the compiler's
// rect ids and region rect tables equal the reference numbering — on single
// launches split across workers whose tables grow past their first size
// (256 and 1 024 distinct rects of A), on a ragged launch, and on a
// multi-launch pipeline whose dist-only rects repeat in every launch.
func TestRectIDsMatchReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"singleLaunch256", summaInput(t, 256, 16, 1)},
		{"singleLaunch1024", summaInput(t, 512, 32, 1)},
		{"raggedSingleLaunch", johnsonInput(t, 256, 5)},
		{"multiLaunch", summaInput(t, 256, 16, 8)},
	} {
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				c, err := newCompiler(context.Background(), tc.in)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := c.lower()
				if err != nil {
					t.Fatal(err)
				}
				wantIDs, wantRects := referenceNumbering(c, prog)
				for _, r := range prog.Regions {
					if got := fmt.Sprint(printRects(r)); got != fmt.Sprint(wantRects[r]) {
						t.Fatalf("region %s rects:\n got %s\nwant %v", r.Name, got, wantRects[r])
					}
				}
				for li, l := range prog.Launches {
					if fmt.Sprint(l.IDs) != fmt.Sprint(wantIDs[li]) {
						t.Fatalf("launch %d ids:\n got %v\nwant %v", li, l.IDs, wantIDs[li])
					}
				}
			})
		}
	}
}

// printRects prints a region's rects as referenceNumbering keys them.
func printRects(r *legion.Region) []string {
	out := make([]string, len(r.Rects))
	for i, rect := range r.Rects {
		out[i] = fmt.Sprint(rect.Lo, rect.Hi)
	}
	return out
}

// snapshot prints everything of a program that compile scratch could alias:
// every region's rects and every launch's ids.
func snapshot(prog *legion.Program) string {
	s := ""
	for _, r := range prog.Regions {
		s += fmt.Sprint(r.Name, printRects(r))
	}
	for _, l := range prog.Launches {
		s += fmt.Sprint(l.IDs)
	}
	return s
}

// TestPooledCompileScratchNotAliased: materializers are pooled across
// compiles, so a program must keep none of their memory. A large plan, a
// small one and the large one again are compiled by several goroutines at
// once; every program must read back exactly as it did when its compile
// returned, and the two large ones must agree. Run under -race too.
func TestPooledCompileScratchNotAliased(t *testing.T) {
	large, small := summaInput(t, 512, 32, 1), summaInput(t, 64, 2, 4)
	want := map[bool]string{}
	for _, big := range []bool{true, false} {
		in := small
		if big {
			in = large
		}
		prog, err := Compile(in)
		if err != nil {
			t.Fatal(err)
		}
		want[big] = snapshot(prog)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var progs []*legion.Program
			var bigs []bool
			for i, big := range []bool{true, false, true} {
				in := small
				if big {
					in = large
				}
				prog, err := Compile(in)
				if err != nil {
					errs <- err
					return
				}
				if got := snapshot(prog); got != want[big] {
					errs <- fmt.Errorf("goroutine %d compile %d differs from the serial compile", g, i)
					return
				}
				progs, bigs = append(progs, prog), append(bigs, big)
			}
			for i, prog := range progs {
				if snapshot(prog) != want[bigs[i]] {
					errs <- fmt.Errorf("goroutine %d compile %d changed after later compiles", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
