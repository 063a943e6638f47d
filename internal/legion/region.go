// Package legion is a miniature reimplementation of the parts of the Legion
// runtime system that DISTAL targets (§6): logical regions over
// hyper-rectangular index spaces, partitions induced by data distributions,
// physical instances living in leaf-processor memories, tasks grouped into
// index launches with region requirements and privileges, a mapper that
// places tasks on processors, and implicit communication realized by copies
// from the nearest valid instance.
//
// Programs execute in two modes sharing one analysis (Analyse):
//
//   - Simulated (the default): data is never materialized; the task graph
//     is walked and every copy and task is priced by internal/sim. Used to
//     reproduce the paper's large-scale experiments.
//   - Real: the same walk also records a data-free Tape of the tasks, and
//     Tape.Execute runs their leaf kernels on actual float64 data, so the
//     result can be compared against the reference evaluator. A tape is
//     immutable: a cached plan analyses once and executes many times.
//
// The executor keeps per-region instance indexes so that source selection
// and reduction flushes scan candidates rather than the whole instance
// population:
//
//   - regState.owners: a point-location index over the persistent owners,
//     built once when the region is placed (owner placement is immutable
//     for the run). Each dimension is cut at the owners' distinct bounds,
//     and each cell of the resulting grid lists its covering owners in
//     placement order. coverFor (the owners containing a rect: the
//     candidate sources of whole-rect copies) looks in the one cell holding
//     the rect's Lo corner; piecesFor (the owners overlapping a rect, with
//     the overlaps: piecewise gathers and the accumulator flush scatter)
//     visits the cells the rect overlaps;
//   - regState.facts: per rect id, what the walk learns once — the rect's
//     volume and bytes, and coverFor's answer, asked at the id's first
//     copy — so a later miss on the same id reads its owner candidates
//     from a table;
//   - transByID/volBuckets: live transient instances grouped by rect,
//     indexed by the requirement's rect id (transByID, the one-lookup
//     equal-rect candidates: Req.ID indexes Region.Rects, so equal ids are
//     equal rects) and by rect volume (volBuckets — only strictly larger
//     volumes can strictly contain a requirement rect). Each group is a
//     list in installation order with a member count. Accumulators are
//     found the same way: a chain per rect id, one accumulator per writing
//     leaf.
//
// The simulated walk allocates per run, per region and per slab chunk, not
// per point or copy, and a warm walk not even that: all of it lives in a
// pooled walk scratch (scratch.go) that the next walk reuses. Owners are one
// slab per region. The per-leaf instance lists and eviction FIFOs are
// leaf-indexed slices of fixed capacity carved from one per-region slab.
// Transient instances, their groups and accumulators come from slabs
// chunked by the launch's size, and evicted instances and emptied groups are
// recycled.
//
// Copy source selection (ensureLocal) is one ordered scan whose cost follows
// the live candidates alone: the memoized covering owners in placement
// order, then the transients of the rect's own group and of every larger
// group containing it, merged on their installation sequence numbers — the
// order an exhaustive scan over every instance would visit them in. No
// candidate list is built or sorted. A sim.CopyPricer reads the destination
// once per miss and prices each cost class once, so each candidate costs
// only its source's validity, port and NIC times; ties go to the earlier
// candidate.
package legion

import (
	"fmt"

	"distal/internal/distnot"
	"distal/internal/machine"
	"distal/internal/tensor"
)

// Privilege describes how a task uses a region requirement, mirroring
// Legion's privilege system.
type Privilege int

const (
	// ReadOnly data may be replicated freely.
	ReadOnly Privilege = iota
	// ReadWrite data is updated in place by its owner.
	ReadWrite
	// WriteDiscard data is overwritten without reading.
	WriteDiscard
	// ReduceSum data is accumulated with + and folded into the owner
	// instance when the program's reductions are flushed.
	ReduceSum
)

func (p Privilege) String() string {
	switch p {
	case ReadOnly:
		return "RO"
	case ReadWrite:
		return "RW"
	case WriteDiscard:
		return "WD"
	case ReduceSum:
		return "Red+"
	default:
		return fmt.Sprintf("Privilege(%d)", int(p))
	}
}

// Region is a logical region: a named dense index space of float64 values.
// A region holds no data: a Real execution binds each region's contents per
// instance (Options.Batch), so one program runs on any number of tensors.
type Region struct {
	Name  string
	Shape []int

	// Placement is the region's initial data distribution onto the target
	// machine, from the tensor's format. Nil means the region is born on
	// leaf 0 (undistributed).
	Placement *distnot.Placement

	// Rects is the program's table of distinct requirement rects on this
	// region, indexed by Req.ID (and by Launch.IDs): the compiler numbers
	// every rect once when it materializes the requirements.
	Rects []tensor.Rect
}

// NewRegion creates a region with the given shape and placement.
func NewRegion(name string, shape []int, placement *distnot.Placement) *Region {
	return &Region{Name: name, Shape: shape, Placement: placement}
}

// Bytes returns the payload size of a rect of this region.
func (r *Region) Bytes(rect tensor.Rect) int64 { return int64(rect.Volume()) * 8 }

// Req is a region requirement of one task: the sub-rectangle accessed and
// the privilege with which it is accessed. A launch stores only the rect's
// id per point; Launch.Req assembles the Req.
type Req struct {
	Region *Region
	Rect   tensor.Rect
	Priv   Privilege
	// ID is Rect's index in Region.Rects. Requirements with equal rects on
	// one region share an id, so the executor indexes its per-rect state
	// (live transients, accumulators) by id instead of hashing the rect.
	ID int32
}

func (q Req) String() string {
	return fmt.Sprintf("%s[%s %s]", q.Region.Name, q.Rect, q.Priv)
}

// ownerRectInto writes into dst, whose Lo and Hi have the region's rank,
// the sub-rectangle of the region the given leaf processor owns under the
// region's placement, and reports whether the leaf owns one.
func (r *Region) ownerRectInto(dst tensor.Rect, m *machine.Machine, leaf []int) bool {
	if r.Placement == nil {
		for _, x := range leaf {
			if x != 0 {
				return false
			}
		}
		clear(dst.Lo)
		copy(dst.Hi, r.Shape)
		return true
	}
	return r.Placement.RectInto(dst, r.Shape, m, leaf)
}
