package legion

import (
	"fmt"

	"distal/internal/machine"
)

// Cost is one task's analytic cost-model inputs: the floating-point
// operations it performs and its local memory traffic in bytes (the
// roofline model's input; zero means compute-bound).
type Cost struct{ Flops, MemBytes float64 }

// Launch is an index task launch: one task per point of Domain, each with
// point-dependent region requirements (Legion projection functors). A launch
// is data, its per-point tables indexed by the point's linearized index lin
// (row-major over Domain). Every task requires the same regions with the
// same privileges; only the rects vary by point, stored as ids into each
// region's rect table. Point lin requires Regions[t].Rects[IDs[lin*nt+t]]
// with privilege Privs[t], where nt = len(Regions), costs Cost[lin], and
// runs on leaf processor Leaf[lin], or on leaf lin % leaves (round-robin
// over the leaf grid) when Leaf is nil. Run performs a task's real
// computation (Real mode only); it is nil in launches only ever simulated.
type Launch struct {
	Name    string
	Domain  machine.Grid
	Regions []*Region
	Privs   []Privilege
	IDs     []int32
	Cost    []Cost
	Leaf    []int32
	Run     func(ctx *Ctx)
}

// Req returns requirement t of the point with linearized index lin.
func (l *Launch) Req(lin, t int) Req {
	r, id := l.Regions[t], l.IDs[lin*len(l.Regions)+t]
	return Req{Region: r, Rect: r.Rects[id], Priv: l.Privs[t], ID: id}
}

// check reports an error, naming the launch, unless its tables cover its
// domain: one privilege per region, one requirement id per point and
// region, one Cost per point, and, when Leaf is set, one leaf per point
// inside the leaf grid of m.
func (l *Launch) check(m *machine.Machine) error {
	nt, n := len(l.Regions), l.Domain.Size()
	if len(l.Privs) != nt || len(l.IDs) != n*nt || len(l.Cost) != n || l.Leaf != nil && len(l.Leaf) != n {
		return fmt.Errorf("legion: launch %s has %d privileges, %d requirement ids, %d costs and %d leaves for %d points of %d regions",
			l.Name, len(l.Privs), len(l.IDs), len(l.Cost), len(l.Leaf), n, nt)
	}
	for lin, leaf := range l.Leaf {
		if leaf < 0 || int(leaf) >= m.LeafGrid().Size() {
			return fmt.Errorf("legion: launch %s maps point %v to leaf %d outside the machine", l.Name, l.Domain.Delinearize(lin), leaf)
		}
	}
	return nil
}

// Program is a compiled DISTAL kernel: an ordered sequence of index
// launches over a set of regions on a machine.
type Program struct {
	Name     string
	Machine  *machine.Machine
	Regions  []*Region
	Launches []*Launch
}

// Ctx and the accumulator live in ctx.go.
