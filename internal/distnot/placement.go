package distnot

import (
	"fmt"
	"strings"

	"distal/internal/machine"
	"distal/internal/tensor"
)

// Placement is a hierarchical data distribution: one Statement per machine
// level (§3.2, "Hierarchy"). Level 0 distributes the tensor over the
// outermost machine grid; level 1 distributes each level-0 piece over the
// child grid; and so on.
type Placement struct {
	Levels []*Statement
}

// NewPlacement builds a placement from per-level statements.
func NewPlacement(levels ...*Statement) *Placement {
	return &Placement{Levels: levels}
}

// ParsePlacement parses semicolon-separated per-level statements, e.g.
// "xy->xy; xy->x" for a 2-D tiling over nodes with a row-wise split of each
// tile over the GPUs of a node.
func ParsePlacement(src string) (*Placement, error) {
	var levels []*Statement
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		s, err := Parse(part)
		if err != nil {
			return nil, err
		}
		levels = append(levels, s)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("distnot: empty placement %q", src)
	}
	return &Placement{Levels: levels}, nil
}

// MustParsePlacement is ParsePlacement but panics on error. Only tests call
// it (in three packages), to spell fixed placements inline.
func MustParsePlacement(src string) *Placement {
	p, err := ParsePlacement(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks each level's statement against the corresponding machine
// level.
func (p *Placement) Validate(tensorRank int, m *machine.Machine) error {
	levels := m.Levels()
	if len(p.Levels) > len(levels) {
		return fmt.Errorf("distnot: placement has %d levels but machine has %d", len(p.Levels), len(levels))
	}
	for i, s := range p.Levels {
		if err := s.Validate(tensorRank, levels[i].Grid); err != nil {
			return fmt.Errorf("distnot: level %d: %w", i, err)
		}
	}
	return nil
}

// RectFor returns the sub-rectangle of a tensor held by the leaf processor
// with the given leaf-grid coordinate (the concatenation of per-level
// coordinates) and whether the leaf holds a piece. When the placement has
// fewer levels than the machine, deeper levels replicate the piece.
func (p *Placement) RectFor(shape []int, m *machine.Machine, leaf []int) (tensor.Rect, bool) {
	rect := tensor.FullRect(shape)
	if !p.RectInto(rect, shape, m, leaf) {
		return tensor.Rect{}, false
	}
	return rect, true
}

// RectInto is RectFor writing into dst, whose Lo and Hi must have the
// tensor's rank, instead of allocating the result. It walks the machine
// levels outermost first and narrows dst in place: each level's statement
// partitions the piece the previous levels left. On false dst holds no
// meaningful rect.
func (p *Placement) RectInto(dst tensor.Rect, shape []int, m *machine.Machine, leaf []int) bool {
	for d, n := range shape {
		dst.Lo[d], dst.Hi[d] = 0, n
	}
	off := 0
	for li, lvl := 0, m; lvl != nil && li < len(p.Levels); li, lvl = li+1, lvl.Child {
		g := lvl.Grid
		if !p.Levels[li].narrow(dst, g, leaf[off:off+g.Rank()]) {
			return false
		}
		off += g.Rank()
	}
	return true // levels below the last specified one replicate the piece
}

// String renders the placement with "; " between levels.
func (p *Placement) String() string {
	parts := make([]string, len(p.Levels))
	for i, s := range p.Levels {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}
