package leaf

// KernelSets are amd64's two sets of vector kernels: the SSE2 kernels and
// their AVX twins.
var KernelSets = []string{"sse2", "avx"}

// UseKernels selects the set named and reports true, or reports false and
// selects nothing when the CPU lacks AVX.
func UseKernels(set string) bool {
	if set == "avx" && !hasAVX() {
		return false
	}
	useAVX = set == "avx"
	return true
}

// ResetKernels restores the set init selected.
func ResetKernels() { useAVX = hasAVX() }
