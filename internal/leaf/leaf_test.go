package leaf_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distal/internal/leaf"
)

// tile4Case is one Tile4 call's shape: nt cells by nr steps over four
// planes, each stride in elements (any sign; |ss| ≥ nt keeps the planes'
// store rows apart).
type tile4Case struct {
	nt, nr, ss, xs, xr, yr int
}

// special are the values the special-value draws mix in: NaN, infinities,
// signed zeros, subnormals and the extremes of the normal range. The NaN is
// the one amd64 produces for an invalid operation (Inf*0, Inf-Inf), so every
// NaN in play has one payload: with two, the survivor depends on operand
// order, which Go leaves to the compiler (see Tile4).
var special = []float64{
	math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022,
}

// fill draws a's values: uniform in [-2, 2), every one in every specialEvery
// from special (never when specialEvery is 0).
func fill(rng *rand.Rand, a []float64, specialEvery int) {
	for i := range a {
		if specialEvery > 0 && rng.Intn(specialEvery) == 0 {
			a[i] = special[rng.Intn(len(special))]
		} else {
			a[i] = 4*rng.Float64() - 2
		}
	}
}

// span returns the origin o that puts the lowest of the indices
// o+i*si+j*sj (i < ni, j < nj) at pad, and the slice length that leaves pad
// cells past the highest.
func span(si, ni, sj, nj, pad int) (o, n int) {
	lo, hi := 0, 0
	for _, d := range [2]int{si * (ni - 1), sj * (nj - 1)} {
		if d < 0 {
			lo += d
		} else {
			hi += d
		}
	}
	return pad - lo, hi - lo + 1 + 2*pad
}

// checkTile4 runs c on seeded operands through Tile4 and through four Tile
// calls, and fails unless every cell of s — those outside the planes
// included — holds the same bits.
func checkTile4(t *testing.T, c tile4Case, seed int64, specialEvery int) {
	t.Helper()
	const pad = 3
	rng := rand.New(rand.NewSource(seed))
	nt, nr := max(c.nt, 1), max(c.nr, 1) // span wants positive counts
	so, ns := span(c.ss, 4, 1, nt, pad)
	xo, nx := span(c.xs, 4, c.xr, nr, pad)
	yo, ny := span(1, nt, c.yr, nr, pad)
	s, x, y := make([]float64, ns), make([]float64, nx), make([]float64, ny)
	fill(rng, s, specialEvery)
	fill(rng, x, specialEvery)
	fill(rng, y, specialEvery)
	want := append([]float64(nil), s...)
	for p := range 4 {
		leaf.Tile(want, so+p*c.ss, x, xo+p*c.xs, c.xr, y, yo, c.yr, c.nt, c.nr)
	}
	leaf.Tile4(s, so, c.ss, x, xo, c.xs, c.xr, y, yo, c.yr, c.nt, c.nr)
	for i := range s {
		if math.Float64bits(s[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%+v seed %d: s[%d] = %v (%#x), four Tile calls give %v (%#x)",
				c, seed, i, s[i], math.Float64bits(s[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestTile4MatchesTile covers every remainder width past the 4-wide tiles
// (nt 0–9) and a wide row, reductions from none to long, a strided x and y
// rows that overlap (yr 4 under nt 64), run across each other or stand apart,
// on finite values and with the special values mixed in.
func TestTile4MatchesTile(t *testing.T) {
	nts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}
	for _, nt := range nts {
		for _, nr := range []int{0, 1, 2, 7, 64} {
			for _, xr := range []int{1, 3} {
				for _, yr := range []int{4, 64, 256} {
					for _, specialEvery := range []int{0, 8} {
						c := tile4Case{nt: nt, nr: nr, ss: nt + 2, xs: 5 * nr, xr: xr, yr: yr}
						checkTile4(t, c, int64(nt*1000+nr*10+xr), specialEvery)
					}
				}
			}
		}
	}
}

// TestTile4NegativeStrides runs planes, x steps and y rows backwards, and
// planes that share x (xs 0).
func TestTile4NegativeStrides(t *testing.T) {
	for i, c := range []tile4Case{
		{nt: 9, nr: 7, ss: -9, xs: -7, xr: 1, yr: 64},
		{nt: 8, nr: 5, ss: 12, xs: 3, xr: -2, yr: -16},
		{nt: 64, nr: 3, ss: -70, xs: 0, xr: -1, yr: -64},
		{nt: 4, nr: 64, ss: 4, xs: 0, xr: 0, yr: 4},
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkTile4(t, c, int64(i), 0)
			checkTile4(t, c, int64(i), 8)
		})
	}
}

// TestTile4ChecksBounds: the kernel indexes without checks, so Tile4 must
// refuse an operand too short at either end, whichever way it is strided.
func TestTile4ChecksBounds(t *testing.T) {
	c := tile4Case{nt: 8, nr: 5, ss: -10, xs: 6, xr: -1, yr: 16}
	so, ns := span(c.ss, 4, 1, c.nt, 0)
	xo, nx := span(c.xs, 4, c.xr, c.nr, 0)
	yo, ny := span(1, c.nt, c.yr, c.nr, 0)
	s, x, y := make([]float64, ns), make([]float64, nx), make([]float64, ny)
	for _, short := range []struct {
		name    string
		s, x, y []float64
		so, xo  int
		yo      int
	}{
		{"s high", s[:ns-1], x, y, so, xo, yo},
		{"s low", s, x, y, so - 1, xo, yo},
		{"x high", s, x[:nx-1], y, so, xo, yo},
		{"x low", s, x, y, so, xo - 1, yo},
		{"y high", s, x, y[:ny-1], so, xo, yo},
		{"y low", s, x, y, so, xo, yo - 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Tile4 did not panic", short.name)
				}
			}()
			leaf.Tile4(short.s, short.so, c.ss, short.x, short.xo, c.xs, c.xr, short.y, short.yo, c.yr, c.nt, c.nr)
		}()
	}
}

// FuzzTile4 draws shapes, strides and seeded values (special values
// included) and compares Tile4 with four Tile calls bit for bit.
func FuzzTile4(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(7), int8(9), int8(4), int8(1), int16(64), uint8(8))
	f.Add(int64(2), uint8(5), uint8(64), int8(-6), int8(-3), int8(-2), int16(-5), uint8(3))
	f.Add(int64(3), uint8(64), uint8(1), int8(100), int8(0), int8(0), int16(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nt, nr uint8, ss, xs, xr int8, yr int16, specialEvery uint8) {
		c := tile4Case{nt: int(nt % 80), nr: int(nr % 80), ss: int(ss), xs: int(xs), xr: int(xr), yr: int(yr)}
		if abs(c.ss) < c.nt {
			c.ss = c.nt + abs(c.ss)%4
		}
		checkTile4(t, c, seed, int(specialEvery%16))
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
