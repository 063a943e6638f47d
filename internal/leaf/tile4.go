package leaf

// Tile4 is Tile over four planes that share the streamed operand y: plane p
// adds into s from so+p*ss and reads x from xo+p*xs, so it computes exactly
// the four calls Tile(s, so+p*ss, x, xo+p*xs, xr, y, yo, yr, nt, nr). Each
// whole 4-wide tile runs as a 4×4 register block (tile4x4, one call for all
// of them): one load of a y row's four cells serves all four planes. The
// planes' store rows must not overlap each other, x or y; the caller
// guarantees it.
//
// Every cell gets the same rounded products and the same additions, in
// increasing r, as under Tile, so the results are bit-identical. One thing
// is outside that promise: which payload survives where two NaNs of
// different payloads meet — an input NaN and one an invalid operation made,
// say. Go leaves that to the compiler's operand order, and Tile's own result
// there changes with how it is compiled (amd64's two kernels agree on it).
//
// Operand bounds are checked once, at the first and last index each operand
// reaches, whatever the strides' signs: the kernel indexes without checks.
// Cells past the last whole tile run Tile per plane.
func Tile4(s []float64, so, ss int, x []float64, xo, xs, xr int, y []float64, yo, yr int, nt, nr int) {
	t := 0
	if nt >= 4 && nr > 0 {
		checkSpan(s, so, ss, 4, 1, nt)
		checkSpan(x, xo, xs, 4, xr, nr)
		checkSpan(y, yo, 1, nt, yr, nr)
		t = nt &^ 3
		tile4x4(s, so, ss, x, xo, xs, xr, y, yo, yr, t, nr)
	}
	if t == nt {
		return
	}
	for p := range 4 {
		Tile(s, so+p*ss+t, x, xo+p*xs, xr, y, yo+t, yr, nt-t, nr)
	}
}

// checkSpan panics unless a[o+i*si+j*sj] is in range for every i < ni and
// j < nj (both positive): the lowest and the highest such index are.
func checkSpan(a []float64, o, si, ni, sj, nj int) {
	lo, hi := o, o
	for _, d := range [2]int{si * (ni - 1), sj * (nj - 1)} {
		if d < 0 {
			lo += d
		} else {
			hi += d
		}
	}
	_, _ = a[lo], a[hi]
}
