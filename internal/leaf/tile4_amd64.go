package leaf

// tile4x4 runs Tile4's whole tiles — nt cells, a positive multiple of 4, at
// s[so], x[xo] and y[yo] — in SSE2 (tile4_amd64.s), or AVX under useAVX:
// nr ≥ 1 reduction steps, every index in range.
//
//go:noescape
func tile4x4(s []float64, so, ss int, x []float64, xo, xs, xr int, y []float64, yo, yr, nt, nr int)
