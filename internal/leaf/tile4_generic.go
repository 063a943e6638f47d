//go:build !amd64

package leaf

// tile4x4 runs Tile4's whole tiles — nt cells at s[so], x[xo] and y[yo] —
// as Tile per plane: ports other than amd64 have no vector kernel.
func tile4x4(s []float64, so, ss int, x []float64, xo, xs, xr int, y []float64, yo, yr, nt, nr int) {
	for p := range 4 {
		Tile(s, so+p*ss, x, xo+p*xs, xr, y, yo, yr, nt, nr)
	}
}
