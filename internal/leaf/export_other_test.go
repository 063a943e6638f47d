//go:build !amd64

package leaf

// KernelSets are the kernel sets of ports other than amd64: the Go loops
// alone.
var KernelSets = []string{"go"}

// UseKernels reports whether this port has the set named.
func UseKernels(set string) bool { return set == "go" }

// ResetKernels does nothing: there is one set.
func ResetKernels() {}
