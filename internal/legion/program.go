package legion

import (
	"distal/internal/machine"
)

// Kernel is the leaf computation of an index-launch point.
type Kernel struct {
	// Flops returns the floating-point operations performed at a point.
	Flops func(point []int) float64
	// MemBytes returns the local memory traffic of the point in bytes
	// (roofline model input). Zero means compute-bound.
	MemBytes func(point []int) float64
	// Run performs the real computation (Real mode only). It may be nil for
	// kernels only ever used in simulation.
	Run func(ctx *Ctx)
}

// Launch is an index task launch: one task per point of Domain, each with
// point-dependent region requirements (Legion projection functors).
//
// Every task requires the same regions with the same privileges, one
// requirement per entry of Regions; only the rects vary by point, and they
// are stored as ids into each region's rect table. The point with
// linearized index lin requires Regions[t].Rects[IDs[lin*nt+t]] with
// privilege Privs[t], where nt = len(Regions).
//
// The executor reuses one point slice across the domain walk: MapPoint,
// the Kernel callbacks, and Ctx.Point must not retain the slice beyond
// their call (copy it if needed), mirroring Grid.Points.
type Launch struct {
	Name   string
	Domain machine.Grid
	// MapPoint places a domain point on a leaf processor (flat leaf index).
	// Nil uses the default mapper: the domain is linearized onto the leaf
	// grid round-robin.
	MapPoint func(point []int) int
	Regions  []*Region
	Privs    []Privilege
	IDs      []int32
	Kernel   Kernel
}

// Req returns requirement t of the point with linearized index lin.
func (l *Launch) Req(lin, t int) Req {
	r, id := l.Regions[t], l.IDs[lin*len(l.Regions)+t]
	return Req{Region: r, Rect: r.Rects[id], Priv: l.Privs[t], ID: id}
}

// Program is a compiled DISTAL kernel: an ordered sequence of index
// launches over a set of regions on a machine.
type Program struct {
	Name     string
	Machine  *machine.Machine
	Regions  []*Region
	Launches []*Launch
}

// defaultMapPoint linearizes a launch-domain point onto the leaf grid. When
// the domain is smaller than the machine the low leaf indices are used; when
// larger, tasks wrap around (round-robin).
func defaultMapPoint(domain, leaves machine.Grid) func(point []int) int {
	n := leaves.Size()
	return func(point []int) int { return domain.Linearize(point) % n }
}

// Ctx and the accumulator live in ctx.go.
