package schedule

import "fmt"

// Extents resolves the extent of every variable in the schedule given the
// extents of the statement's original variables (from tensor shapes).
func (s *Schedule) Extents(orig map[string]int) (map[string]int, error) {
	out := map[string]int{}
	var extentOf func(name string) (int, error)
	extentOf = func(name string) (int, error) {
		if e, ok := out[name]; ok {
			return e, nil
		}
		v, ok := s.vars[name]
		if !ok {
			return 0, fmt.Errorf("schedule: unknown variable %s", name)
		}
		var e int
		switch v.Kind {
		case Original:
			oe, ok := orig[name]
			if !ok {
				return 0, fmt.Errorf("schedule: no extent for original variable %s", name)
			}
			e = oe
		case DivideOuter:
			e = v.Param
		case DivideInner:
			oe, err := extentOf(v.Origin)
			if err != nil {
				return 0, err
			}
			e = ceilDiv(oe, v.Param)
		case SplitInner:
			e = v.Param
		case SplitOuter:
			oe, err := extentOf(v.Origin)
			if err != nil {
				return 0, err
			}
			e = ceilDiv(oe, v.Param)
		case Fused:
			a, err := extentOf(v.FuseA)
			if err != nil {
				return 0, err
			}
			b, err := extentOf(v.FuseB)
			if err != nil {
				return 0, err
			}
			e = a * b
		case Rotated:
			oe, err := extentOf(v.Origin)
			if err != nil {
				return 0, err
			}
			e = oe
		default:
			return 0, fmt.Errorf("schedule: unhandled kind for %s", name)
		}
		out[name] = e
		return e, nil
	}
	for name := range s.vars {
		if _, err := extentOf(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func clampIv(iv Interval, n int) Interval {
	if iv.Lo < 0 {
		iv.Lo = 0
	}
	if iv.Hi > n {
		iv.Hi = n
	}
	return iv
}

// Interval is a half-open integer range [Lo, Hi).
type Interval struct {
	Lo, Hi int
}

// Fixed reports whether the interval contains exactly one value.
func (iv Interval) Fixed() bool { return iv.Hi == iv.Lo+1 }

type divInfo struct {
	outer, inner string
	isDivide     bool
	param        int
	origin       string
}

func (d *divInfo) blockSize(extents map[string]int) int {
	if d.isDivide {
		return ceilDiv(extents[d.origin], d.param)
	}
	return d.param // split: inner size is the parameter
}

// dividedOrSplit returns division info if name was divided or split.
func (s *Schedule) dividedOrSplit(name string) *divInfo {
	for _, v := range s.vars {
		if v.Origin == name && (v.Kind == DivideOuter || v.Kind == SplitOuter) {
			return &divInfo{outer: v.Name, inner: v.Partner, isDivide: v.Kind == DivideOuter, param: v.Param, origin: name}
		}
	}
	return nil
}

// rotatedBy returns the Rotated variable that replaced name, if any.
func (s *Schedule) rotatedBy(name string) *Var {
	for _, v := range s.vars {
		if v.Kind == Rotated && v.Origin == name {
			return v
		}
	}
	return nil
}

// fusedInto returns the Fused variable that consumed name, if any.
func (s *Schedule) fusedInto(name string) *Var {
	for _, v := range s.vars {
		if v.Kind == Fused && (v.FuseA == name || v.FuseB == name) {
			return v
		}
	}
	return nil
}
