// Package ir defines tensor index notation, the input computation language
// of DISTAL (§2). A statement assigns an expression built from tensor
// accesses, addition, and multiplication to a left-hand-side access; index
// variables appearing only on the right-hand side are sum reductions.
package ir

import (
	"fmt"
	"strings"
)

// IndexVar is a named index variable (i, j, k, ...).
type IndexVar struct {
	Name string
}

func (v IndexVar) String() string { return v.Name }

// Expr is a tensor index notation expression.
type Expr interface {
	// Accesses appends every tensor access in the expression to dst.
	Accesses(dst []*Access) []*Access
	String() string
}

// Access indexes a named tensor with a list of index variables, e.g.
// B(i, k). A rank-0 access (no indices) denotes a scalar.
type Access struct {
	Tensor  string
	Indices []IndexVar
}

func (a *Access) Accesses(dst []*Access) []*Access { return append(dst, a) }

func (a *Access) String() string {
	if len(a.Indices) == 0 {
		return a.Tensor
	}
	names := make([]string, len(a.Indices))
	for i, v := range a.Indices {
		names[i] = v.Name
	}
	return a.Tensor + "(" + strings.Join(names, ",") + ")"
}

// Literal is a floating-point constant.
type Literal struct {
	Value float64
}

func (l *Literal) Accesses(dst []*Access) []*Access { return dst }
func (l *Literal) String() string                   { return fmt.Sprint(l.Value) }

// Add is pointwise addition of two sub-expressions.
type Add struct {
	L, R Expr
}

func (a *Add) Accesses(dst []*Access) []*Access { return a.R.Accesses(a.L.Accesses(dst)) }
func (a *Add) String() string                   { return a.L.String() + " + " + a.R.String() }

// Mul is pointwise multiplication of two sub-expressions.
type Mul struct {
	L, R Expr
}

func (m *Mul) Accesses(dst []*Access) []*Access { return m.R.Accesses(m.L.Accesses(dst)) }

func (m *Mul) String() string {
	l, r := m.L.String(), m.R.String()
	if _, ok := m.L.(*Add); ok {
		l = "(" + l + ")"
	}
	if _, ok := m.R.(*Add); ok {
		r = "(" + r + ")"
	}
	return l + " * " + r
}

// Assignment is a full tensor index notation statement LHS = RHS (or
// LHS += RHS when Increment is set).
type Assignment struct {
	LHS       *Access
	RHS       Expr
	Increment bool
}

func (s *Assignment) String() string {
	op := "="
	if s.Increment {
		op = "+="
	}
	return fmt.Sprintf("%s %s %s", s.LHS, op, s.RHS)
}

// Vars returns every distinct index variable, LHS variables first (in LHS
// order), then reduction variables in first-appearance order on the RHS.
// This matches the default loop-nest construction order of §5.1.
func (s *Assignment) Vars() []IndexVar {
	var out []IndexVar
	seen := map[string]bool{}
	add := func(v IndexVar) {
		if !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v)
		}
	}
	for _, v := range s.LHS.Indices {
		add(v)
	}
	for _, a := range s.RHS.Accesses(nil) {
		for _, v := range a.Indices {
			add(v)
		}
	}
	return out
}

// ReductionVars returns the index variables that appear on the RHS but not
// in the LHS access: these are summed over.
func (s *Assignment) ReductionVars() []IndexVar {
	inLHS := map[string]bool{}
	for _, v := range s.LHS.Indices {
		inLHS[v.Name] = true
	}
	var out []IndexVar
	for _, v := range s.Vars() {
		if !inLHS[v.Name] {
			out = append(out, v)
		}
	}
	return out
}

// TensorNames returns the distinct tensor names in the statement, LHS first,
// then RHS tensors in order of first appearance.
func (s *Assignment) TensorNames() []string {
	var out []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(s.LHS.Tensor)
	for _, a := range s.RHS.Accesses(nil) {
		add(a.Tensor)
	}
	return out
}

// Validate checks structural well-formedness given the shape of every tensor
// in the statement: access arity must match tensor rank, every LHS variable
// must appear on the RHS, and each variable must index dimensions of one
// consistent extent.
func (s *Assignment) Validate(shapes map[string][]int) error {
	extents, err := s.VarExtents(shapes)
	if err != nil {
		return err
	}
	rhsVars := map[string]bool{}
	for _, a := range s.RHS.Accesses(nil) {
		for _, v := range a.Indices {
			rhsVars[v.Name] = true
		}
	}
	for _, v := range s.LHS.Indices {
		if !rhsVars[v.Name] {
			return fmt.Errorf("ir: LHS variable %s does not appear on the RHS", v.Name)
		}
	}
	_ = extents
	return nil
}

// VarExtents computes the extent of each index variable from tensor shapes,
// returning an error on arity or extent mismatches.
func (s *Assignment) VarExtents(shapes map[string][]int) (map[string]int, error) {
	extents := map[string]int{}
	check := func(a *Access) error {
		shape, ok := shapes[a.Tensor]
		if !ok {
			return fmt.Errorf("ir: no shape provided for tensor %s", a.Tensor)
		}
		if len(shape) != len(a.Indices) && !scalarCompatible(a, shape) {
			return fmt.Errorf("ir: access %s has %d indices but tensor has rank %d",
				a, len(a.Indices), len(shape))
		}
		for d, v := range a.Indices {
			if prev, ok := extents[v.Name]; ok && prev != shape[d] {
				return fmt.Errorf("ir: variable %s indexes extents %d and %d", v.Name, prev, shape[d])
			}
			extents[v.Name] = shape[d]
		}
		return nil
	}
	if err := check(s.LHS); err != nil {
		return nil, err
	}
	for _, a := range s.RHS.Accesses(nil) {
		if err := check(a); err != nil {
			return nil, err
		}
	}
	return extents, nil
}

// scalarCompatible reports whether a zero-index access may target the shape:
// scalars are represented either as rank-0 tensors or rank-1 unit tensors
// (the distributed pipeline uses the latter so they are partitionable).
func scalarCompatible(a *Access, shape []int) bool {
	return len(a.Indices) == 0 && len(shape) == 1 && shape[0] == 1
}
