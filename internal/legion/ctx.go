package legion

import (
	"fmt"

	"distal/internal/tensor"
)

// Ctx gives a Real-mode leaf kernel access to the data of its region
// requirements in global coordinates. Reads and writes resolve against the
// execution's data binding (one instance of Execute's instances), so one
// immutable cached program — and one cached tape — runs on different data
// per execution, and a batched execution runs N independent problem
// instances at once: every read or write resolves against the instance the
// task computes.
//
// A Ctx is the tape's record of the task plus the execution's data; each
// worker reuses one across the tasks it runs, so kernels must not retain it
// (or its Point) past their return.
type Ctx struct {
	// Point is the task's domain coordinate. It is shared by every instance
	// of the task and by concurrent executions of the tape: read-only.
	Point []int
	x     *execution
	tl    *tapeLaunch
	task  *tapeTask
	inst  int // batch instance index (0 for single-instance runs)
}

// readData returns the instance's data of the task's read requirement on
// name, or nil when the task holds none.
func (c *Ctx) readData(name string) *tensor.Dense {
	for _, r := range c.tl.reads[c.task.r0:c.task.r1] {
		if r.name == name {
			return c.x.data[c.inst*len(c.x.tape.slots)+int(r.slot)]
		}
	}
	return nil
}

// write returns the task's write accumulator on name and its id, or nil
// when the task holds none.
func (c *Ctx) write(name string) (*tapeAcc, int) {
	for _, id := range c.tl.writes[c.task.w0:c.task.w1] {
		if a := &c.x.tape.accs[id]; a.name == name {
			return a, int(id)
		}
	}
	return nil, -1
}

// acc returns the task's write requirement on name and the tensor its
// writes land in: the region's data when in place, the instance's
// task-local buffer otherwise.
func (c *Ctx) acc(name string) (*tapeAcc, *tensor.Dense) {
	a, id := c.write(name)
	switch {
	case a == nil:
		panic(fmt.Sprintf("legion: task has no writable requirement on %s", name))
	case a.inPlace:
		return a, c.x.data[c.inst*len(c.x.tape.slots)+int(a.slot)]
	default:
		return a, c.x.bufs[c.inst*len(c.x.tape.accs)+id]
	}
}

// ReadAt returns the value of region name at the global coordinate p.
// Reading is always satisfied from the canonical data: read-only inputs have
// a single version for the duration of a program, so every valid instance
// holds identical contents.
func (c *Ctx) ReadAt(name string, p ...int) float64 {
	t := c.readData(name)
	if t == nil {
		panic(fmt.Sprintf("legion: task has no readable requirement on %s", name))
	}
	return t.At(p...)
}

// WriteAdd accumulates v into region name at the global coordinate p.
func (c *Ctx) WriteAdd(name string, v float64, p ...int) {
	a, t := c.acc(name)
	if a.inPlace {
		t.Add(v, p...)
		return
	}
	t.Add(v, local(p, a.rect)...)
}

// WriteSet stores v into region name at the global coordinate p.
func (c *Ctx) WriteSet(name string, v float64, p ...int) {
	a, t := c.acc(name)
	if a.inPlace {
		t.Set(v, p...)
		return
	}
	t.Set(v, local(p, a.rect)...)
}

// Holds reports whether the task holds a requirement, read or write, on the
// named region. A requirement whose rect is empty is never bound: the task
// has no in-space point that touches the region, so a kernel that resolves
// its surfaces up front checks here before it binds them.
func (c *Ctx) Holds(name string) bool {
	a, _ := c.write(name)
	return a != nil || c.readData(name) != nil
}

// ReadSurface exposes the raw storage of the named read requirement: the
// canonical backing slice and its row-major strides, addressed in global
// coordinates (offset = dot(p, strides)). Compiled kernel programs use it to
// read without per-point lookups or bounds re-checks; the requirement check
// happens once here instead of once per element.
func (c *Ctx) ReadSurface(name string) (data []float64, strides []int) {
	t := c.readData(name)
	if t == nil {
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
	a, t := c.acc(name)
	strides = t.Strides()
	if !a.inPlace {
		for d, lo := range a.rect.Lo {
			base -= lo * strides[d]
		}
	}
	return t.Data(), strides, base
}

func local(p []int, rect tensor.Rect) []int {
	out := make([]int, len(p))
	for d := range p {
		out[d] = p[d] - rect.Lo[d]
	}
	return out
}
