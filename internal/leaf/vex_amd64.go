package leaf

// useAVX selects the AVX twins of the SSE2 kernels: tile4x4 and heldRow8
// jump to tile4x4AVX and heldRow8AVX (vex_amd64.s) when it is set. It is set
// once, by init (a func init, not an initialiser, so that it links after the
// Go kernels; see leaf.go); only tests change it.
var useAVX bool

func init() { useAVX = hasAVX() }

// hasAVX reports whether the CPU has AVX (CPUID leaf 1) and the OS saves the
// YMM registers (XCR0's XMM and YMM bits).
func hasAVX() bool

// tile4x4AVX is tile4x4 in 256-bit AVX, with the same bits.
//
//go:noescape
func tile4x4AVX(s []float64, so, ss int, x []float64, xo, xs, xr int, y []float64, yo, yr, nt, nr int)

// heldRow8AVX is heldRow8 in 256-bit AVX, with the same bits.
//
//go:noescape
func heldRow8AVX(s []float64, so int, p []float64, po, ps int, b []float64, bo, bs int, c []float64, co, cs int, nv, nu int)
