// Package distnot implements tensor distribution notation (§3.2, Fig. 4 of
// the DISTAL paper): statements of the form
//
//	T d+ ↦ n+ M
//
// that map the dimensions of a tensor T onto the dimensions of a machine M.
// Each tensor dimension is named; each machine dimension is either one of
// those names (the tensor dimension is partitioned across it), a constant
// (the partition is fixed to that index), or '*' (the partition is broadcast
// across the whole machine dimension).
package distnot

import (
	"fmt"
	"strings"

	"distal/internal/machine"
	"distal/internal/tensor"
)

// NameKind classifies a machine-dimension name.
type NameKind int

const (
	// Dim partitions a tensor dimension across this machine dimension.
	Dim NameKind = iota
	// Fixed pins the partition to one index of this machine dimension.
	Fixed
	// Broadcast replicates the partition across this machine dimension.
	Broadcast
)

// MachineName is one entry of the machine-side index sequence.
type MachineName struct {
	Kind  NameKind
	Var   string // for Dim: the tensor dimension name
	Index int    // for Fixed: the pinned coordinate
}

func (n MachineName) String() string {
	switch n.Kind {
	case Dim:
		return n.Var
	case Fixed:
		return fmt.Sprint(n.Index)
	case Broadcast:
		return "*"
	default:
		return "?"
	}
}

// Statement is one tensor distribution notation statement for one machine
// level.
type Statement struct {
	// TensorDims names each dimension of the tensor, in order.
	TensorDims []string
	// MachineDims names each dimension of the machine, in order.
	MachineDims []MachineName
}

// Parse parses the compact form used throughout the paper, e.g.
//
//	"xy->xy"    two-dimensional tiling                 (Fig. 5c)
//	"xy->x"     row-wise distribution                  (Fig. 5b)
//	"xy->xy0"   tiles fixed to face 0 of dimension 3   (Fig. 5d)
//	"xy->xy*"   tiles broadcast over dimension 3       (Fig. 5e)
//	"xyz->xy"   3-tensor onto a 2-D grid               (Fig. 5f)
//
// Every rune left of "->" is a tensor dimension name; on the right, a letter
// is a partitioned dimension, a digit is a Fixed coordinate, and '*' is a
// Broadcast. Whitespace is ignored.
func Parse(src string) (*Statement, error) {
	clean := strings.ReplaceAll(src, " ", "")
	parts := strings.Split(clean, "->")
	if len(parts) != 2 {
		return nil, fmt.Errorf("distnot: %q must contain exactly one \"->\"", src)
	}
	s := &Statement{}
	for _, r := range parts[0] {
		if !isNameRune(r) {
			return nil, fmt.Errorf("distnot: bad tensor dimension name %q in %q", string(r), src)
		}
		s.TensorDims = append(s.TensorDims, string(r))
	}
	for _, r := range parts[1] {
		switch {
		case r == '*':
			s.MachineDims = append(s.MachineDims, MachineName{Kind: Broadcast})
		case r >= '0' && r <= '9':
			s.MachineDims = append(s.MachineDims, MachineName{Kind: Fixed, Index: int(r - '0')})
		case isNameRune(r):
			s.MachineDims = append(s.MachineDims, MachineName{Kind: Dim, Var: string(r)})
		default:
			return nil, fmt.Errorf("distnot: bad machine dimension name %q in %q", string(r), src)
		}
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustParse is Parse but panics on error.
func MustParse(src string) *Statement {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func isNameRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
}

// check enforces the static validity rules of §3.2 that do not depend on a
// concrete tensor or machine: no duplicate names on either side, and every
// machine-side name must appear on the tensor side.
func (s *Statement) check() error {
	seen := map[string]bool{}
	for _, n := range s.TensorDims {
		if seen[n] {
			return fmt.Errorf("distnot: duplicate tensor dimension name %q", n)
		}
		seen[n] = true
	}
	mseen := map[string]bool{}
	for _, n := range s.MachineDims {
		if n.Kind != Dim {
			continue
		}
		if mseen[n.Var] {
			return fmt.Errorf("distnot: duplicate machine dimension name %q", n.Var)
		}
		mseen[n.Var] = true
		if !seen[n.Var] {
			return fmt.Errorf("distnot: machine dimension name %q not present among tensor dimensions", n.Var)
		}
	}
	return nil
}

// Validate checks the statement against a concrete tensor rank and machine
// grid: |X| = dim T, |Y| = dim M, and Fixed coordinates must be in range.
func (s *Statement) Validate(tensorRank int, grid machine.Grid) error {
	if err := s.check(); err != nil {
		return err
	}
	if len(s.TensorDims) != tensorRank {
		return fmt.Errorf("distnot: statement names %d tensor dimensions but tensor has rank %d",
			len(s.TensorDims), tensorRank)
	}
	if len(s.MachineDims) != grid.Rank() {
		return fmt.Errorf("distnot: statement names %d machine dimensions but machine has rank %d",
			len(s.MachineDims), grid.Rank())
	}
	for d, n := range s.MachineDims {
		if n.Kind == Fixed && (n.Index < 0 || n.Index >= grid.Dims[d]) {
			return fmt.Errorf("distnot: fixed coordinate %d out of machine dimension %d (extent %d)",
				n.Index, d, grid.Dims[d])
		}
	}
	return nil
}

// machineDimOf returns the machine dimension partitioning tensor dimension d,
// or -1 if that tensor dimension is unpartitioned.
func (s *Statement) machineDimOf(d int) int {
	name := s.TensorDims[d]
	for j, n := range s.MachineDims {
		if n.Kind == Dim && n.Var == name {
			return j
		}
	}
	return -1
}

// RectFor returns the sub-rectangle of a tensor with the given shape held by
// the processor at coordinate proc in grid, and whether that processor holds
// any piece at all (processors off a Fixed face hold nothing). RectFor
// implements the composition F∘P of §3.2 with the paper's blocked
// partitioning function P, which maps contiguous coordinate ranges to one
// color.
func (s *Statement) RectFor(shape []int, grid machine.Grid, proc []int) (tensor.Rect, bool) {
	r := tensor.FullRect(shape)
	if !s.narrow(r, grid, proc) {
		return tensor.Rect{}, false
	}
	return r, true
}

// narrow restricts r in place to the block that processor proc of grid
// holds of it: a partitioned dimension d keeps block proc[j] of r's extent
// along d, translated by r.Lo[d]. It reports false, with r partly narrowed,
// when proc lies off a Fixed face.
func (s *Statement) narrow(r tensor.Rect, grid machine.Grid, proc []int) bool {
	if len(r.Lo) != len(s.TensorDims) || len(proc) != len(s.MachineDims) {
		panic(fmt.Sprintf("distnot: RectFor rank mismatch: tensor rank %d, proc rank %d vs statement %s", len(r.Lo), len(proc), s))
	}
	for j, n := range s.MachineDims {
		if n.Kind == Fixed && proc[j] != n.Index {
			return false
		}
	}
	for d := range r.Lo {
		j := s.machineDimOf(d)
		if j < 0 {
			continue
		}
		lo, hi := tensor.BlockRange(r.Hi[d]-r.Lo[d], grid.Dims[j], proc[j])
		r.Lo[d], r.Hi[d] = r.Lo[d]+lo, r.Lo[d]+hi
	}
	return true
}

func (s *Statement) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(s.TensorDims, ""))
	b.WriteString("->")
	for _, n := range s.MachineDims {
		b.WriteString(n.String())
	}
	return b.String()
}
