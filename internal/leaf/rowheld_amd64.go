package leaf

// heldRow8 runs HeldRow's whole groups — nv cells, a positive multiple of 8,
// at s[so], b[bo] and c[co] — in SSE2 (rowheld_amd64.s): nu ≥ 1 rows, every
// index in range.
//
//go:noescape
func heldRow8(s []float64, so int, p []float64, po, ps int, b []float64, bo, bs int, c []float64, co, cs int, nv, nu int)
