package legion

import (
	"math/rand"
	"slices"
	"testing"

	"distal/internal/distnot"
	"distal/internal/machine"
	"distal/internal/tensor"
)

// placedRegion places r on m exactly as a run does and returns its state.
func placedRegion(m *machine.Machine, r *Region) *regState {
	return testExecutor(m, Options{Params: testParams()}, r).reg[r]
}

// scanCover and scanPieces are the owner lookups by ordered linear scan over
// every persistent owner: the semantics the owner index must reproduce.
func scanCover(rs *regState, rect tensor.Rect) []int32 {
	var out []int32
	for i := range rs.persistent {
		if rs.persistent[i].rect.ContainsRect(rect) {
			out = append(out, int32(i))
		}
	}
	return out
}

func scanPieces(rs *regState, rect tensor.Rect) []ownerPiece {
	var out []ownerPiece
	for i := range rs.persistent {
		inst := &rs.persistent[i]
		if piece := inst.rect.Intersect(rect); !piece.Empty() {
			out = append(out, ownerPiece{inst: inst, piece: piece, bytes: rs.region.Bytes(piece)})
		}
	}
	return out
}

// randomPlacement draws a placement for a rank-2 tensor over a two-level
// machine: partitioned, transposed, broadcast or fixed outer levels, an
// optional inner level, or no placement at all.
func randomPlacement(rng *rand.Rand) *distnot.Placement {
	outer := []string{"xy->xy", "xy->yx", "xy->x*", "xy->*y", "xy->x0", "xy->1y", "xy->**", "xy->x1"}
	inner := []string{"", "xy->x", "xy->y", "xy->*", "xy->0"}
	if rng.Intn(8) == 0 {
		return nil
	}
	src := outer[rng.Intn(len(outer))]
	if in := inner[rng.Intn(len(inner))]; in != "" {
		src += "; " + in
	}
	return distnot.MustParsePlacement(src)
}

// randomQuery draws a query rect of the given shape: empty, whole-region,
// one owner's rect, or random bounds that may straddle owners and the
// region's edges.
func randomQuery(rng *rand.Rand, shape []int, rs *regState) tensor.Rect {
	lo, hi := make([]int, len(shape)), make([]int, len(shape))
	switch k := rng.Intn(6); {
	case k == 0: // empty along one dimension
		for d, n := range shape {
			lo[d] = rng.Intn(n + 1)
			hi[d] = lo[d] + rng.Intn(3)
		}
		d := rng.Intn(len(shape))
		hi[d] = lo[d] - rng.Intn(2)
	case k == 1:
		copy(hi, shape)
	case k == 2 && len(rs.persistent) > 0:
		o := rs.persistent[rng.Intn(len(rs.persistent))].rect
		copy(lo, o.Lo)
		copy(hi, o.Hi)
	default:
		for d, n := range shape {
			a, b := rng.Intn(n+3)-1, rng.Intn(n+3)-1
			lo[d], hi[d] = min(a, b), max(a, b)+1
		}
	}
	return tensor.Rect{Lo: lo, Hi: hi}
}

// TestOwnerIndexMatchesScan: over random placements, machines and extents
// (prime, ragged, unit), coverFor and piecesFor return exactly what an
// ordered linear scan over the persistent owners returns — the same owners
// in the same order with the same pieces.
func TestOwnerIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extents := []int{1, 2, 5, 7, 12, 13, 16}
	for trial := 0; trial < 400; trial++ {
		child := machine.New(machine.NewGrid(rng.Intn(3)+1), machine.GPUFBMem, machine.GPU)
		m := machine.New(machine.NewGrid(rng.Intn(3)+2, rng.Intn(3)+2), machine.SysMem, machine.CPU).WithChild(child)
		shape := []int{extents[rng.Intn(len(extents))], extents[rng.Intn(len(extents))]}
		place := randomPlacement(rng)
		rs := placedRegion(m, NewRegion("T", shape, place))
		for q := 0; q < 40; q++ {
			rect := randomQuery(rng, shape, rs)
			if got, want := rs.coverFor(nil, rect), scanCover(rs, rect); !slices.Equal(got, want) {
				t.Fatalf("placement %v shape %v: coverFor(%v) = %v, scan %v", place, shape, rect, got, want)
			}
			got, want := rs.piecesFor(rect), scanPieces(rs, rect)
			if !slices.EqualFunc(got, want, func(a, b ownerPiece) bool {
				return a.inst == b.inst && a.bytes == b.bytes &&
					slices.Equal(a.piece.Lo, b.piece.Lo) && slices.Equal(a.piece.Hi, b.piece.Hi)
			}) {
				t.Fatalf("placement %v shape %v: piecesFor(%v) = %v, scan %v", place, shape, rect, got, want)
			}
		}
	}
}

// TestOwnerIndexCellBound: a blocked placement is a product partition, so
// the index has at most the product of the per-dimension block counts of
// cells; an unreplicated one has exactly one owner per cell.
func TestOwnerIndexCellBound(t *testing.T) {
	child := machine.New(machine.NewGrid(3), machine.GPUFBMem, machine.GPU)
	m := machine.New(machine.NewGrid(4, 2), machine.SysMem, machine.CPU).WithChild(child)
	for _, tc := range []struct {
		place   string
		blocks  int // product of the per-dimension block counts
		perCell int // owners listed per cell
	}{
		{"xy->xy; xy->x", 4 * 3 * 2, 1},
		{"xy->xy; xy->*", 4 * 2, 3},
		{"xy->x*; xy->y", 4 * 3, 2},
		{"xy->0y", 2, 3},
	} {
		shape := []int{29, 13} // ragged under every split above
		rs := placedRegion(m, NewRegion("T", shape, distnot.MustParsePlacement(tc.place)))
		ix := &rs.owners
		cells := len(ix.start) - 1
		if cells > tc.blocks {
			t.Errorf("%s: %d cells, want at most %d", tc.place, cells, tc.blocks)
		}
		for c := 0; c < cells; c++ {
			if n := int(ix.start[c+1] - ix.start[c]); n != tc.perCell {
				t.Errorf("%s: cell %d lists %d owners, want %d", tc.place, c, n, tc.perCell)
			}
		}
	}
}
