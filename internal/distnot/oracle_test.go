package distnot

import (
	"fmt"

	"distal/internal/machine"
)

// This file is the tests' pointwise oracle for F of §3.2: it answers "who
// holds coordinate p" one coordinate at a time, independently of the rect
// narrowing (narrow) that production uses, so the tests can check each
// against the other.

// OwnersOf returns the coordinates of every processor whose piece contains
// the tensor coordinate p: the partitioned dimensions select a unique color
// and Fixed/Broadcast machine dimensions expand it per F of §3.2.
func (s *Statement) OwnersOf(shape []int, grid machine.Grid, p []int) [][]int {
	procs := [][]int{nil}
	for j, n := range s.MachineDims {
		var choices []int
		switch n.Kind {
		case Fixed:
			choices = []int{n.Index}
		case Broadcast:
			for x := 0; x < grid.Dims[j]; x++ {
				choices = append(choices, x)
			}
		case Dim:
			d := tensorDimIndex(s.TensorDims, n.Var)
			choices = []int{blockOf(shape[d], grid.Dims[j], p[d])}
		}
		var next [][]int
		for _, prefix := range procs {
			for _, c := range choices {
				next = append(next, append(append([]int(nil), prefix...), c))
			}
		}
		procs = next
	}
	return procs
}

func tensorDimIndex(dims []string, name string) int {
	for i, d := range dims {
		if d == name {
			return i
		}
	}
	panic(fmt.Sprintf("distnot: unknown tensor dimension %q", name))
}

// blockOf returns the color of coordinate x when an extent of n is divided
// into count blocks.
func blockOf(n, count, x int) int {
	size := (n + count - 1) / count
	return x / size
}

// Replicas returns how many processors hold each piece: the product of the
// extents of Broadcast dimensions.
func (s *Statement) Replicas(grid machine.Grid) int {
	n := 1
	for j, name := range s.MachineDims {
		if name.Kind == Broadcast {
			n *= grid.Dims[j]
		}
	}
	return n
}
