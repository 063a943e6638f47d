package request

import (
	"fmt"
	"strconv"
	"strings"

	"distal/internal/ir"
)

// ParseShapes parses a -shapes flag, "A=1024x1024,B=512x512", into a
// request's shape map. When src is empty every tensor gets extent n in each
// of its dimensions, and a scalar access gets shape (1). One statement
// declares all of its tensors; a program of several declares its leaf
// inputs only, since the shapes of intermediates follow from their
// producers.
func ParseShapes(stmts []string, src string, n int) (map[string][]int, error) {
	out := map[string][]int{}
	if src != "" {
		for _, ent := range strings.Split(src, ",") {
			name, dims, ok := strings.Cut(strings.TrimSpace(ent), "=")
			if !ok {
				return nil, fmt.Errorf("bad -shapes entry %q (want NAME=AxBxC)", ent)
			}
			var shape []int
			for _, d := range strings.Split(dims, "x") {
				v, err := strconv.Atoi(strings.TrimSpace(d))
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("bad dimension %q in -shapes entry %q", d, ent)
				}
				shape = append(shape, v)
			}
			out[strings.TrimSpace(name)] = shape
		}
		return out, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("give -shapes or a positive -n")
	}
	assigned := map[string]bool{}
	rank := map[string]int{}
	for _, text := range stmts {
		stmt, err := ir.Parse(text)
		if err != nil {
			return nil, err
		}
		if len(stmts) > 1 {
			assigned[stmt.LHS.Tensor] = true
		}
		for _, a := range append(stmt.RHS.Accesses(nil), stmt.LHS) {
			rank[a.Tensor] = len(a.Indices)
		}
	}
	for name, r := range rank {
		if assigned[name] {
			continue
		}
		shape := []int{1}
		if r > 0 {
			shape = make([]int, r)
			for d := range shape {
				shape[d] = n
			}
		}
		out[name] = shape
	}
	return out, nil
}

// ParseFormats parses a -formats flag, "A=xy->xy,B=xy->**", into a
// request's format map. Entries are comma-separated; distribution notation
// itself contains no commas.
func ParseFormats(src string) (map[string]string, error) {
	if src == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, ent := range strings.Split(src, ",") {
		name, f, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok {
			return nil, fmt.Errorf("bad -formats entry %q (want NAME=notation)", ent)
		}
		out[strings.TrimSpace(name)] = strings.TrimSpace(f)
	}
	return out, nil
}

// ParseGrid parses a -grid flag, "16", "4x4" or "2X2x2", into machine grid
// dimensions, each a positive integer.
func ParseGrid(src string) ([]int, error) {
	var dims []int
	for _, part := range strings.Split(strings.ToLower(src), "x") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad grid %q (want e.g. 16, 4x4, 2x2x2)", src)
		}
		dims = append(dims, v)
	}
	return dims, nil
}
