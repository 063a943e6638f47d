package leaf

// HeldRow is Axpy for a store row that every row adds into (the store does
// not move along u), with p2 absent and c present: it computes exactly
// Axpy(View{s.Data, s.Off, 0, 1}, p1, View{}, b, c, nu, nv). Eight adjacent
// cells at a time stay in registers across all nu rows (heldRow8, one call
// for all whole groups), so the row is loaded and stored once per call
// instead of once per row. The store must share no array with p1, b or c;
// the caller guarantees it.
//
// Every cell gets the same rounded products, added in increasing u, as
// under Axpy, so the results are bit-identical, with Tile4's one exception:
// which NaN payload survives where two different ones meet.
//
// Operand bounds are checked once, at the first and last index each operand
// reaches, whatever the strides' signs: the kernel indexes without checks.
// Cells past the last whole group run through Axpy.
func HeldRow(s, p1, b, c View, nu, nv int) {
	t := 0
	if nv >= 8 && nu > 0 {
		t = nv &^ 7
		checkSpan(s.Data, s.Off, 1, t, 0, 1)
		checkSpan(p1.Data, p1.Off, p1.SU, nu, 0, 1)
		checkSpan(b.Data, b.Off, 1, t, b.SU, nu)
		checkSpan(c.Data, c.Off, 1, t, c.SU, nu)
		heldRow8(s.Data, s.Off, p1.Data, p1.Off, p1.SU, b.Data, b.Off, b.SU, c.Data, c.Off, c.SU, t, nu)
	}
	if t == nv {
		return
	}
	Axpy(View{Data: s.Data, Off: s.Off + t}, p1, View{},
		View{Data: b.Data, Off: b.Off + t, SU: b.SU}, View{Data: c.Data, Off: c.Off + t, SU: c.SU}, nu, nv-t)
}
