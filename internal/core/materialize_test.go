package core

import (
	"runtime"
	"slices"
	"testing"

	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/machine"
	"distal/internal/schedule"
	"distal/internal/tensor"
)

// johnsonInput builds a g x g x g Johnson-style 3D matmul without data: one
// launch of g^3 points (512 at g = 8, enough to engage several
// materialization workers).
func johnsonInput(t *testing.T, n, g int) Input {
	t.Helper()
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	m := machine.New(machine.NewGrid(g, g, g), machine.SysMem, machine.CPU)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j", "k"}, []string{"io", "jo", "ko"}, []string{"ii", "ji", "ki"}, []int{g, g, g}).
		Communicate("ko", "A", "B", "C")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	mk := func(name, place string) *TensorDecl {
		return &TensorDecl{Name: name, Shape: []int{n, n}, Placement: distnot.MustParsePlacement(place)}
	}
	return Input{
		Stmt:    stmt,
		Machine: m,
		Tensors: map[string]*TensorDecl{
			"A": mk("A", "xy->xy0"), "B": mk("B", "xz->x0z"), "C": mk("C", "zy->0yz"),
		},
		Schedule: s,
	}
}

// assertSamePrograms compares two compiled programs launch by launch:
// requirements, privileges, rects and rect ids point by point, and the
// whole cost tables, must all agree.
func assertSamePrograms(t *testing.T, p1, p2 *legion.Program) {
	t.Helper()
	if len(p1.Launches) != len(p2.Launches) {
		t.Fatalf("launch counts differ: %d vs %d", len(p1.Launches), len(p2.Launches))
	}
	for li := range p1.Launches {
		l1, l2 := p1.Launches[li], p2.Launches[li]
		if len(l1.Regions) != len(l2.Regions) {
			t.Fatalf("launch %d: req counts differ", li)
		}
		if !slices.Equal(l1.Cost, l2.Cost) {
			t.Fatalf("launch %d: cost tables differ", li)
		}
		n := l1.Domain.Size()
		for i := 0; i < n; i++ {
			pt := l1.Domain.Delinearize(i)
			for qi := range l1.Regions {
				q1, q2 := l1.Req(i, qi), l2.Req(i, qi)
				if q1.Region.Name != q2.Region.Name || q1.Priv != q2.Priv ||
					!q1.Rect.Equal(q2.Rect) || q1.ID != q2.ID {
					t.Fatalf("launch %d point %v req %d: %v vs %v", li, pt, qi, q1, q2)
				}
			}
		}
	}
}

// TestMaterializeDeterministic: parallel launch materialization must be
// deterministic — two compiles of the same input produce identical
// requirements and cost-model values at every point.
func TestMaterializeDeterministic(t *testing.T) {
	in := johnsonInput(t, 256, 8)
	p1, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePrograms(t, p1, p2)
}

// summaInput builds a chunked SUMMA-style pipeline: a multi-launch plan
// (one launch per ko chunk) that exercises launch-parallel materialization
// and the cross-launch dist-only requirement cache.
func summaInput(t *testing.T, n, g, chunks int) Input {
	t.Helper()
	stmt := ir.MustParse("A(i,j) = B(i,k) * C(k,j)")
	m := machine.New(machine.NewGrid(g, g), machine.SysMem, machine.CPU)
	s := schedule.New(stmt).
		DistributeOnto([]string{"i", "j"}, []string{"io", "jo"}, []string{"ii", "ji"}, []int{g, g}).
		Split("k", "ko", "ki", (n+chunks-1)/chunks).
		Reorder("ko", "ii", "ji", "ki").
		Communicate("jo", "A").
		Communicate("ko", "B", "C")
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *TensorDecl {
		return &TensorDecl{Name: name, Shape: []int{n, n}, Placement: distnot.MustParsePlacement("xy->xy")}
	}
	return Input{
		Stmt:     stmt,
		Machine:  m,
		Tensors:  map[string]*TensorDecl{"A": mk("A"), "B": mk("B"), "C": mk("C")},
		Schedule: s,
	}
}

// TestMaterializeStrategiesAgree: materialization must not depend on the
// pool. Each GOMAXPROCS in {2, 3, 4} is compared against the one-worker
// compile (GOMAXPROCS 1) of a multi-launch pipeline, whose units are whole
// launches, and of single launches, whose units are point ranges. The
// 5x5x5 grid's 125 points split into uneven ranges; its 256-wide tensors
// leave ragged tail tiles.
func TestMaterializeStrategiesAgree(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"multiLaunch", summaInput(t, 256, 4, 8)},
		{"singleLaunch", johnsonInput(t, 256, 8)},
		{"raggedSingleLaunch", johnsonInput(t, 256, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			serial, err := Compile(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 3, 4} {
				runtime.GOMAXPROCS(procs)
				parallel, err := Compile(tc.in)
				if err != nil {
					t.Fatal(err)
				}
				assertSamePrograms(t, serial, parallel)
			}
		})
	}
}

// TestRectIDs: every requirement's id indexes its region's rect table
// (Rects[ID] is the requirement's rect), the ids of a region are dense in
// [0, len(Rects)) — every table entry is some requirement's — and equal
// rects share an id while unequal rects do not.
func TestRectIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"multiLaunch", summaInput(t, 256, 4, 8)},
		{"singleLaunch", johnsonInput(t, 256, 8)},
		{"raggedSingleLaunch", johnsonInput(t, 256, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			used := map[*legion.Region][]bool{}
			for _, r := range prog.Regions {
				used[r] = make([]bool, len(r.Rects))
				for i := range r.Rects {
					for j := range i {
						if r.Rects[i].Equal(r.Rects[j]) {
							t.Fatalf("region %s: ids %d and %d share rect %v", r.Name, j, i, r.Rects[i])
						}
					}
				}
			}
			for li, l := range prog.Launches {
				for i := 0; i < l.Domain.Size(); i++ {
					for qi := range l.Regions {
						q := l.Req(i, qi)
						rects := q.Region.Rects
						if q.ID < 0 || int(q.ID) >= len(rects) {
							t.Fatalf("launch %d point %d: %v has id %d outside [0, %d)", li, i, q, q.ID, len(rects))
						}
						if !rects[q.ID].Equal(q.Rect) {
							t.Fatalf("launch %d point %d: %v has id %d, whose rect is %v", li, i, q, q.ID, rects[q.ID])
						}
						used[q.Region][q.ID] = true
					}
				}
			}
			for r, u := range used {
				for id, ok := range u {
					if !ok {
						t.Fatalf("region %s: id %d (%v) is no requirement's", r.Name, id, r.Rects[id])
					}
				}
			}
		})
	}
}

// TestMaterializeInternsRects: points sharing a requirement rect share its
// id, and so the one interned rect storage, rather than each holding a
// private copy.
func TestMaterializeInternsRects(t *testing.T) {
	in := johnsonInput(t, 256, 8)
	prog, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Launches[0]
	// Points (0,0,0) and (0,0,1) differ only in ko, and A's rect depends
	// only on io and jo, so both write the same A tile.
	q1 := l.Req(l.Domain.Linearize([]int{0, 0, 0}), 0)
	q2 := l.Req(l.Domain.Linearize([]int{0, 0, 1}), 0)
	if !q1.Rect.Equal(q2.Rect) {
		t.Fatalf("expected equal A rects, got %v vs %v", q1.Rect, q2.Rect)
	}
	// Across the launch, every two points with equal rects of a tensor
	// share the id and the Lo backing.
	for ti, r := range l.Regions {
		first := map[tensor.RectKey]legion.Req{}
		for i := 0; i < l.Domain.Size(); i++ {
			q := l.Req(i, ti)
			p, ok := first[q.Rect.Key()]
			if !ok {
				first[q.Rect.Key()] = q
				continue
			}
			if p.ID != q.ID {
				t.Fatalf("region %s point %d: rect %v has id %d, an earlier point's has %d", r.Name, i, q.Rect, q.ID, p.ID)
			}
			if &p.Rect.Lo[0] != &q.Rect.Lo[0] {
				t.Fatalf("region %s point %d: equal rects %v are not interned (distinct backing arrays)", r.Name, i, q.Rect)
			}
		}
	}
}

// TestMaterializeSharedSlab: a launch stores its requirements as one slab of
// rect ids, point-major in linearized point order, one id per point and
// region, and every id indexes its region's rect table.
func TestMaterializeSharedSlab(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"multiLaunch", summaInput(t, 256, 4, 8)},
		{"singleLaunch", johnsonInput(t, 256, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for li, l := range prog.Launches {
				nt := len(l.Regions)
				if nt != 3 || len(l.Privs) != nt {
					t.Fatalf("launch %d: %d regions and %d privileges, want 3 each", li, nt, len(l.Privs))
				}
				if len(l.IDs) != l.Domain.Size()*nt {
					t.Fatalf("launch %d: %d ids for %d points of %d regions", li, len(l.IDs), l.Domain.Size(), nt)
				}
				for k, id := range l.IDs {
					r := l.Regions[k%nt]
					if id < 0 || int(id) >= len(r.Rects) {
						t.Fatalf("launch %d point %d: region %s id %d outside [0, %d)", li, k/nt, r.Name, id, len(r.Rects))
					}
				}
			}
		})
	}
}
