package legion

import (
	"testing"

	"distal/internal/distnot"
	"distal/internal/machine"
	"distal/internal/tensor"
)

// readLaunch builds a single-task launch on leaf dst reading the given rect
// of b and writing its own piece of a (in place, so writes do not disturb
// the copy accounting).
func readLaunch(name string, a, b *Region, dst int, rect tensor.Rect) *Launch {
	return numbered(&Launch{
		Name:   name,
		Domain: machine.NewGrid(1),
		Leaf:   []int32{int32(dst)},
	}, func(pt []int) ([]Req, Cost) {
		return []Req{
			{Region: a, Rect: tensor.NewRect([]int{dst}, []int{dst + 1}), Priv: WriteDiscard},
			{Region: b, Rect: rect, Priv: ReadOnly},
		}, Cost{Flops: 1}
	})
}

// TestGatherPiecewise: a requirement spanning several owners' pieces has no
// single covering instance; it must be gathered piecewise from the
// persistent owners, and the combined transient must satisfy later reads.
func TestGatherPiecewise(t *testing.T) {
	n, procs := 16, 4
	m := flatMachine(procs)
	b := NewRegion("B", []int{n}, distnot.NewPlacement(distnot.MustParse("x->x")))
	a := NewRegion("A", []int{procs}, distnot.NewPlacement(distnot.MustParse("x->x")))
	full := tensor.FullRect([]int{n})
	prog := &Program{Name: "gather", Machine: m, Regions: []*Region{a, b},
		Launches: []*Launch{
			readLaunch("g1", a, b, 0, full),
			readLaunch("g2", a, b, 0, full),
		}}
	res, err := Run(prog, Options{Params: testParams(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf 0 owns B[0:4) locally; B[4:8), B[8:12), B[12:16) are copied from
	// their owners. The second read hits the combined transient: no copies.
	if res.Copies != 3 {
		t.Fatalf("copies = %d, want 3 gather pieces", res.Copies)
	}
	wantPieces := map[string]int{
		"[4,8)": 1, "[8,12)": 2, "[12,16)": 3,
	}
	for _, c := range res.Trace {
		src, ok := wantPieces[c.Rect.String()]
		if !ok || c.Src != src || c.Dst != 0 {
			t.Fatalf("unexpected gather copy %+v", c)
		}
		delete(wantPieces, c.Rect.String())
	}
	if len(wantPieces) != 0 {
		t.Fatalf("missing gather pieces: %v", wantPieces)
	}
}

// TestTransientWindowRefetch: once the eviction window pushes a transient
// instance out, its memory is freed and a later read of the same rect must
// re-fetch it.
func TestTransientWindowRefetch(t *testing.T) {
	n, procs := 16, 4
	m := flatMachine(procs)
	b := NewRegion("B", []int{n}, distnot.NewPlacement(distnot.MustParse("x->x")))
	a := NewRegion("A", []int{procs}, distnot.NewPlacement(distnot.MustParse("x->x")))
	// Three distinct overlapping 12-element windows, then the first again.
	// Every window spans three owners, so each uninstalled read gathers
	// pieces; leaf 1 executes all tasks.
	r1 := tensor.NewRect([]int{0}, []int{12})
	r2 := tensor.NewRect([]int{4}, []int{16})
	r3 := tensor.NewRect([]int{2}, []int{14})
	launches := func() []*Launch {
		return []*Launch{
			readLaunch("s1", a, b, 1, r1),
			readLaunch("s2", a, b, 1, r2),
			readLaunch("s3", a, b, 1, r3),
			readLaunch("s4", a, b, 1, r1),
		}
	}

	narrow, err := Run(&Program{Name: "w1", Machine: m, Regions: []*Region{a, b}, Launches: launches()},
		Options{Params: testParams(), TransientWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(&Program{Name: "w3", Machine: m, Regions: []*Region{a, b}, Launches: launches()},
		Options{Params: testParams(), TransientWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With a window of 3 the fourth read hits the still-live instance of
	// the first; with a window of 1 that instance is dead and the read
	// gathers again.
	if wide.Copies >= narrow.Copies {
		t.Fatalf("re-fetch after eviction: narrow window copies = %d, wide = %d, want narrow > wide",
			narrow.Copies, wide.Copies)
	}
	// Eviction must free memory: the narrow window never holds all three
	// 96-byte transients at once, the wide window does.
	if narrow.PeakMemBytes >= wide.PeakMemBytes {
		t.Fatalf("eviction did not free memory: narrow peak = %d, wide peak = %d",
			narrow.PeakMemBytes, wide.PeakMemBytes)
	}
}

// TestTransientStrictContainment: a requirement spanning two owners has no
// persistent cover, but a live transient of a strictly larger rect
// (installed by an earlier gather on another leaf) does — the candidate
// search must find it through the volume-bucket index and satisfy the read
// with one copy from the transient instead of a piecewise gather.
func TestTransientStrictContainment(t *testing.T) {
	n, procs := 16, 4
	m := flatMachine(procs)
	b := NewRegion("B", []int{n}, distnot.NewPlacement(distnot.MustParse("x->x")))
	a := NewRegion("A", []int{procs}, distnot.NewPlacement(distnot.MustParse("x->x")))
	full := tensor.FullRect([]int{n})
	span := tensor.NewRect([]int{2}, []int{6}) // spans owners 0 and 1
	prog := &Program{Name: "contain", Machine: m, Regions: []*Region{a, b},
		Launches: []*Launch{
			readLaunch("g1", a, b, 1, full), // leaf 1 gathers all of B
			readLaunch("g2", a, b, 2, span), // leaf 2 wants a spanning sub-rect
		}}
	res, err := Run(prog, Options{Params: testParams(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// g1 gathers 3 pieces (leaf 1 owns [4,8)); g2 is satisfied by ONE copy
	// of [2,6) from leaf 1's full transient, not a 2-piece gather.
	if res.Copies != 4 {
		t.Fatalf("copies = %d, want 4 (3 gather pieces + 1 contained copy)", res.Copies)
	}
	foundContained := false
	for _, c := range res.Trace {
		if c.Rect.String() == span.String() {
			foundContained = true
			if c.Src != 1 || c.Dst != 2 {
				t.Fatalf("contained copy %+v, want src 1 dst 2", c)
			}
		}
	}
	if !foundContained {
		t.Fatalf("no whole-rect copy of %s in trace: %+v", span, res.Trace)
	}
}
