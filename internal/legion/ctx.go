package legion

import (
	"fmt"

	"distal/internal/tensor"
)

// Ctx gives a Real-mode leaf kernel access to the data of its region
// requirements in global coordinates. Reads and writes resolve against the
// execution's data binding (Options.Data or one Options.Batch instance,
// overriding Region.Data), so one immutable cached program can run on
// different data per execution — and, under a batched execution, on N
// independent problem instances at once: each deferred task carries the slot
// (instance index) it computes, and every read or write resolves against
// that instance's tensors.
//
// Instances are recycled through the executor's free list: runLaunch binds
// one per deferred (instance × task), the task batch runs, and reset returns
// the maps to the list — the real path allocates a handful of Ctxs per
// execution rather than two maps per task.
type Ctx struct {
	// Point is the task's domain coordinate. The slice is carved from a
	// per-launch slab and stays valid for the task's whole invocation, but
	// kernels must not retain it past their return. Under a batched
	// execution all instances of one point share the slice (it is read-only
	// during the drain).
	Point  []int
	slot   int // batch instance index (0 for single-instance runs)
	reads  map[string]*tensor.Dense
	writes map[string]*accumulator
}

func newCtx() *Ctx {
	return &Ctx{reads: map[string]*tensor.Dense{}, writes: map[string]*accumulator{}}
}

// reset drops the task's bindings (keeping the map storage) so the Ctx can
// be reused by a later task without holding tensors or accumulators live.
func (c *Ctx) reset() {
	c.Point = nil
	c.slot = 0
	clear(c.reads)
	clear(c.writes)
}

// accumulator is a task-local output buffer covering a rect of a region. It
// is combined into the canonical region data when reductions flush. The
// simulated-time fields (rect, combine, lastUse, ...) are shared by every
// batch instance — accounting runs once per accumulator regardless of batch
// size — while the Real-mode storage is per instance: bufs[slot] holds
// instance slot's canonical tensor and (for non-in-place accumulators) its
// private local buffer.
type accumulator struct {
	region  *Region
	rect    tensor.Rect
	key     tensor.RectKey
	combine Privilege // ReduceSum accumulates; others overwrite
	inPlace bool      // writes go directly to the canonical data
	leaf    int
	lastUse float64
	bufs    []accBuf // Real mode: one entry per batch instance
}

// accBuf is one batch instance's view of an accumulator: the instance's
// canonical region data and, for non-in-place accumulators, the local buffer
// (indexed by local coordinates, global - rect.Lo).
type accBuf struct {
	canon *tensor.Dense
	data  *tensor.Dense
}

// ReadAt returns the value of region name at the global coordinate p.
// Reading is always satisfied from the canonical data: read-only inputs have
// a single version for the duration of a program, so every valid instance
// holds identical contents.
func (c *Ctx) ReadAt(name string, p ...int) float64 {
	t, ok := c.reads[name]
	if !ok || t == nil {
		panic(fmt.Sprintf("legion: task has no readable requirement on %s", name))
	}
	return t.At(p...)
}

// WriteAdd accumulates v into region name at the global coordinate p.
func (c *Ctx) WriteAdd(name string, v float64, p ...int) {
	a := c.acc(name)
	b := &a.bufs[c.slot]
	if a.inPlace {
		b.canon.Add(v, p...)
		return
	}
	b.data.Add(v, local(p, a.rect)...)
}

// WriteSet stores v into region name at the global coordinate p.
func (c *Ctx) WriteSet(name string, v float64, p ...int) {
	a := c.acc(name)
	b := &a.bufs[c.slot]
	if a.inPlace {
		b.canon.Set(v, p...)
		return
	}
	b.data.Set(v, local(p, a.rect)...)
}

// ReadLocalAt reads back a value previously written by this task's
// write/reduce requirement (needed by += kernels that read their output).
func (c *Ctx) ReadLocalAt(name string, p ...int) float64 {
	a := c.acc(name)
	b := &a.bufs[c.slot]
	if a.inPlace {
		return b.canon.At(p...)
	}
	return b.data.At(local(p, a.rect)...)
}

// Holds reports whether the task holds a requirement, read or write, on the
// named region. A requirement whose rect is empty is never bound: the task
// has no in-space point that touches the region, so a kernel that resolves
// its surfaces up front checks here before it binds them.
func (c *Ctx) Holds(name string) bool {
	if _, ok := c.reads[name]; ok {
		return true
	}
	_, ok := c.writes[name]
	return ok
}

// ReadSurface exposes the raw storage of the named read requirement: the
// canonical backing slice and its row-major strides, addressed in global
// coordinates (offset = dot(p, strides)). Compiled kernel programs use it to
// read without per-point map lookups or bounds re-checks; the requirement
// check happens once here instead of once per element.
func (c *Ctx) ReadSurface(name string) (data []float64, strides []int) {
	t, ok := c.reads[name]
	if !ok || t == nil {
		panic(fmt.Sprintf("legion: task has no readable requirement on %s", name))
	}
	return t.Data(), t.Strides()
}

// WriteSurface exposes the raw storage of the named write requirement. The
// element at global coordinate p lives at data[base+dot(p, strides)]: for an
// in-place instance that is the canonical tensor itself (base 0), for a
// task-local accumulator the base folds the rect origin into the offset so
// kernels address both cases identically.
func (c *Ctx) WriteSurface(name string) (data []float64, strides []int, base int) {
	a := c.acc(name)
	b := &a.bufs[c.slot]
	t := b.data
	if a.inPlace {
		t = b.canon
	}
	strides = t.Strides()
	if !a.inPlace {
		for d, lo := range a.rect.Lo {
			base -= lo * strides[d]
		}
	}
	return t.Data(), strides, base
}

func (c *Ctx) acc(name string) *accumulator {
	a, ok := c.writes[name]
	if !ok {
		panic(fmt.Sprintf("legion: task has no writable requirement on %s", name))
	}
	return a
}

func local(p []int, rect tensor.Rect) []int {
	out := make([]int, len(p))
	for d := range p {
		out[d] = p[d] - rect.Lo[d]
	}
	return out
}
