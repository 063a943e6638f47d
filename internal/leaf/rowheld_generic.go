//go:build !amd64

package leaf

// heldRow8 runs HeldRow's whole groups — nv cells at s[so], b[bo] and c[co]
// — through Axpy: ports other than amd64 have no vector kernel.
func heldRow8(s []float64, so int, p []float64, po, ps int, b []float64, bo, bs int, c []float64, co, cs int, nv, nu int) {
	Axpy(View{Data: s, Off: so}, View{Data: p, Off: po, SU: ps}, View{},
		View{Data: b, Off: bo, SU: bs}, View{Data: c, Off: co, SU: cs}, nu, nv)
}
