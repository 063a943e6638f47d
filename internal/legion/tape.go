package legion

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"distal/internal/obs"
	"distal/internal/tensor"
)

// Tape is the data-independent record of one Real analysis: everything a
// Real execution needs that does not depend on the bound tensors. Analyse
// builds it in one serial walk — placement, copy and compute accounting, the
// accumulator flush — and Execute replays its tasks on data as often as
// needed, from any number of goroutines at once: a tape is immutable once
// built.
//
// Per stage it holds the launches in order and the accumulators the stage
// opened, in fold order; per launch, the tasks in point order with their
// read regions and write accumulators, and the write-safety groups the
// worker pool drains them by. Regions reach their data through slots: a
// region placed from the binding gets a slot of its own, a region adopted
// through a Handoff shares its producer's.
type Tape struct {
	res    Result
	real   bool      // a Real analysis: tasks were recorded
	slots  []*Region // regions whose data comes from the binding, in placement order
	stages []tapeStage
	accs   []tapeAcc // every accumulator, stage by stage in opening order
}

type tapeStage struct {
	label      string
	repart     bool
	launches   []tapeLaunch
	acc0, acc1 int // the stage's accumulators are accs[acc0:acc1]
}

// tapeLaunch is one index launch's tasks in point order: task i is the point
// with linearized index i. Tasks are grouped by write safety: two tasks
// share a group when they write through the same accumulator, or through
// in-place accumulators of one region whose rects overlap (possible under
// replicated placements). Groups touch pairwise disjoint memory, so they may
// run concurrently; tasks within a group run in point order, so
// floating-point accumulation order, and hence every result bit, matches
// serial execution. If the launch reads a region some task writes in place,
// cross-task order is observable through reads, and all tasks form one
// group. Group g is members[groups[g]:groups[g+1]]: groups are ordered by
// first member, members by point.
type tapeLaunch struct {
	launch  *Launch
	tasks   []tapeTask
	reads   []tapeRead // task i reads reads[tasks[i].r0:tasks[i].r1]
	writes  []int32    // task i writes accs[writes[tasks[i].w0:tasks[i].w1]]
	members []int32
	groups  []int32
}

type tapeTask struct {
	r0, r1, w0, w1 int32
}

type tapeRead struct {
	name string
	slot int32
}

// tapeAcc is the Real side of an accumulator: where its writes land. An
// in-place accumulator writes its region's data directly; any other writes a
// task-local buffer of the rect's extents (local coordinates, global -
// rect.Lo) that the stage's end folds into the region's data, summing for
// ReduceSum and storing otherwise.
type tapeAcc struct {
	name    string
	slot    int32
	rect    tensor.Rect
	shape   []int
	inPlace bool
	reduce  bool
}

// Result returns a copy of the simulated metrics of the analysed walk. A
// batched execution's metrics are those of a single instance: the walk
// models one.
func (t *Tape) Result() *Result {
	r := t.res
	return &r
}

// launch appends l to the stage being analysed and returns its record when
// the launch has tasks to record (a launch with a kernel), nil otherwise. A
// nil tape (a simulation) records nothing.
func (t *Tape) launch(l *Launch, n int) *tapeLaunch {
	if t == nil {
		return nil
	}
	st := &t.stages[len(t.stages)-1]
	st.launches = append(st.launches, tapeLaunch{launch: l})
	if l.Run == nil {
		return nil
	}
	tl := &st.launches[len(st.launches)-1]
	tl.tasks = make([]tapeTask, 0, n)
	return tl
}

// addTask opens the record of the launch's next task.
func (tl *tapeLaunch) addTask() {
	r, w := int32(len(tl.reads)), int32(len(tl.writes))
	tl.tasks = append(tl.tasks, tapeTask{r0: r, r1: r, w0: w, w1: w})
}

// addRead binds region name, through slot, as a read of the open task.
func (tl *tapeLaunch) addRead(name string, slot int32) {
	t := &tl.tasks[len(tl.tasks)-1]
	for _, r := range tl.reads[t.r0:t.r1] {
		if r.name == name {
			return
		}
	}
	tl.reads = append(tl.reads, tapeRead{name: name, slot: slot})
	t.r1++
}

// addWrite binds accumulator id as a write of the open task; a later write
// requirement on the same region replaces an earlier one.
func (tl *tapeLaunch) addWrite(id int32, accs []tapeAcc) {
	t := &tl.tasks[len(tl.tasks)-1]
	for j := t.w0; j < t.w1; j++ {
		if accs[tl.writes[j]].name == accs[id].name {
			tl.writes[j] = id
			return
		}
	}
	tl.writes = append(tl.writes, id)
	t.w1++
}

// group computes the launch's write-safety groups (see tapeLaunch) by
// union-find over task indices: path-halving find and min-root union, so
// each component's root is its first member.
func (tl *tapeLaunch) group(accs []tapeAcc) {
	n := len(tl.tasks)
	tl.members = make([]int32, n)
	if tl.readAliased(accs) {
		for i := range tl.members {
			tl.members[i] = int32(i)
		}
		tl.groups = []int32{0, int32(n)}
		return
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	first := map[int32]int32{} // accumulator -> first task writing it
	type ipAcc struct{ task, acc int32 }
	var inPlace []ipAcc
	for i, t := range tl.tasks {
		for _, id := range tl.writes[t.w0:t.w1] {
			if f, ok := first[id]; ok {
				union(int32(i), f)
				continue
			}
			first[id] = int32(i)
			a := &accs[id]
			if !a.inPlace {
				continue
			}
			for _, p := range inPlace {
				if b := &accs[p.acc]; b.slot == a.slot && b.rect.Overlaps(a.rect) {
					union(int32(i), p.task)
				}
			}
			inPlace = append(inPlace, ipAcc{task: int32(i), acc: id})
		}
	}
	// Counting sort by root: next[r] is root r's next free member slot.
	next := make([]int32, n)
	for i := range parent {
		next[find(int32(i))]++
	}
	off := int32(0)
	for i := range parent {
		if parent[i] == int32(i) {
			tl.groups = append(tl.groups, off)
			off, next[i] = off+next[i], off
		}
	}
	tl.groups = append(tl.groups, off)
	for i := range parent {
		r := find(int32(i))
		tl.members[next[r]] = int32(i)
		next[r]++
	}
}

// readAliased reports whether some task writes in place a region the launch
// reads.
func (tl *tapeLaunch) readAliased(accs []tapeAcc) bool {
	for _, id := range tl.writes {
		if !accs[id].inPlace {
			continue
		}
		for _, r := range tl.reads {
			if r.slot == accs[id].slot {
				return true
			}
		}
	}
	return false
}

// Execute runs the tape's tasks on real data: instances holds one binding
// per problem instance (region name -> tensor, one for every region), and
// every instance computes the whole program. Each stage drains its launches
// in order, with a barrier per launch: a launch's groups × instances fan out
// over up to workers goroutines (zero means min(GOMAXPROCS, 16); 1 runs
// serially), tasks within a group run in point order, and ctx is polled per
// task. At each stage's end the task-local accumulators fold into their
// regions' data in the order the analysis opened them. Instances touch
// disjoint tensors apart from shared inputs, so they never serialize
// against each other, and every instance's output is bit-identical to a
// single-instance, single-worker execution.
func (t *Tape) Execute(ctx context.Context, instances []map[string]*tensor.Dense, workers int) error {
	if !t.real {
		return fmt.Errorf("legion: the tape comes from a simulation; only a Real analysis records tasks")
	}
	if len(instances) == 0 {
		return fmt.Errorf("legion: no instances to execute")
	}
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 16)
	}
	x := &execution{tape: t, ctx: ctx, batch: len(instances), workers: workers}
	if err := x.bind(instances); err != nil {
		return err
	}
	x.bufs = make([]*tensor.Dense, x.batch*len(t.accs))
	x.ctxs = make([]Ctx, workers)
	for si := range t.stages {
		if err := x.runStage(si); err != nil {
			return err
		}
	}
	return nil
}

// execution is one Execute call's state: the bound data, the task-local
// accumulator buffers, and the worker pool's per-launch bookkeeping.
type execution struct {
	tape    *Tape
	ctx     context.Context
	batch   int
	workers int
	data    []*tensor.Dense // instance b's slot s is data[b*len(tape.slots)+s]
	bufs    []*tensor.Dense // instance b's buffer of accumulator id is bufs[b*len(tape.accs)+id]
	ctxs    []Ctx           // one per worker

	next     atomic.Int32 // the launch's next unclaimed unit
	wg       sync.WaitGroup
	mu       sync.Mutex
	err      error
	panicked any
}

// bind resolves every slot's data per instance, checking it against the
// region's shape.
func (x *execution) bind(instances []map[string]*tensor.Dense) error {
	slots := x.tape.slots
	x.data = make([]*tensor.Dense, len(instances)*len(slots))
	for s, r := range slots {
		for b, bind := range instances {
			inst := func() string {
				if len(instances) > 1 {
					return fmt.Sprintf(" (instance %d)", b)
				}
				return ""
			}
			d := bind[r.Name]
			if d == nil {
				return fmt.Errorf("legion: Real execution requires data bound to region %s%s", r.Name, inst())
			}
			if !slices.Equal(d.Shape(), r.Shape) {
				return fmt.Errorf("legion: data bound to region %s%s has shape %v, want %v", r.Name, inst(), d.Shape(), r.Shape)
			}
			x.data[b*len(slots)+s] = d
		}
	}
	return nil
}

// runStage executes stage si: allocate its task-local accumulator buffers,
// drain its launches, fold the buffers.
func (x *execution) runStage(si int) error {
	t := x.tape
	st := &t.stages[si]
	_, ssp := obs.Start(x.ctx, "run-stage")
	defer ssp.End()
	if ssp != nil {
		ssp.SetAttr("stage", strconv.Itoa(si))
		if st.label != "" {
			ssp.SetAttr("output", st.label)
		}
		if st.repart {
			ssp.SetAttr("repart", "true")
		}
		ssp.SetAttr("launches", strconv.Itoa(len(st.launches)))
	}
	na, ns := len(t.accs), len(t.slots)
	for id := st.acc0; id < st.acc1; id++ {
		if a := &t.accs[id]; !a.inPlace {
			for b := 0; b < x.batch; b++ {
				x.bufs[b*na+id] = tensor.New(a.name+"_acc", a.shape...)
			}
		}
	}
	for li := range st.launches {
		if err := x.ctx.Err(); err != nil {
			return err
		}
		tl := &st.launches[li]
		lsp := ssp.StartChild("launch")
		lsp.SetAttr("name", tl.launch.Name)
		err := x.drain(tl, lsp)
		lsp.End()
		if err != nil {
			return err
		}
	}
	for id := st.acc0; id < st.acc1; id++ {
		if a := &t.accs[id]; !a.inPlace {
			for b := 0; b < x.batch; b++ {
				x.data[b*ns+int(a.slot)].FoldRect(x.bufs[b*na+id], a.rect, a.reduce)
				x.bufs[b*na+id] = nil
			}
		}
	}
	return nil
}

// drain runs one launch's tasks for every instance. Its units are group ×
// instance pairs; with one worker, or one unit, they run in order on the
// calling goroutine, otherwise the caller and up to workers-1 goroutines
// claim units until none is left.
func (x *execution) drain(tl *tapeLaunch, sp *obs.Span) error {
	if len(tl.tasks) == 0 {
		return nil
	}
	units := (len(tl.groups) - 1) * x.batch
	w := min(x.workers, units)
	if dsp := sp.StartChild("real-drain"); dsp != nil {
		dsp.SetAttrs(
			obs.Attr{Key: "tasks", Val: strconv.Itoa(len(tl.tasks) * x.batch)},
			obs.Attr{Key: "groups", Val: strconv.Itoa(units)},
			obs.Attr{Key: "pooled", Val: strconv.FormatBool(w > 1)},
		)
		defer dsp.End()
	}
	if w <= 1 {
		for u := 0; u < units; u++ {
			if err := x.runUnit(tl, u, &x.ctxs[0]); err != nil {
				return err
			}
		}
		return nil
	}
	x.next.Store(0)
	x.wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func(c *Ctx) {
			defer x.wg.Done()
			x.work(tl, units, c)
		}(&x.ctxs[k])
	}
	x.work(tl, units, &x.ctxs[0])
	x.wg.Wait()
	if x.panicked != nil {
		panic(x.panicked)
	}
	return x.err
}

// work claims and runs units until none is left or one fails; a kernel
// panic is recorded for drain to re-raise once every worker has stopped.
func (x *execution) work(tl *tapeLaunch, units int, c *Ctx) {
	defer func() {
		if r := recover(); r != nil {
			x.mu.Lock()
			if x.panicked == nil {
				x.panicked = r
			}
			x.mu.Unlock()
		}
	}()
	for {
		u := int(x.next.Add(1) - 1)
		if u >= units {
			return
		}
		if err := x.runUnit(tl, u, c); err != nil {
			x.mu.Lock()
			if x.err == nil {
				x.err = err
			}
			x.mu.Unlock()
			return
		}
	}
}

// runUnit runs group u/batch of the launch on instance u%batch, in point
// order, through the worker's Ctx: each task's index delinearizes into the
// Ctx's point buffer.
func (x *execution) runUnit(tl *tapeLaunch, u int, c *Ctx) error {
	g := u / x.batch
	c.x, c.tl, c.inst = x, tl, u%x.batch
	d, run := tl.launch.Domain, tl.launch.Run
	c.Point = append(c.pt[:0], make([]int, d.Rank())...)
	for _, ti := range tl.members[tl.groups[g]:tl.groups[g+1]] {
		if err := x.ctx.Err(); err != nil {
			return err
		}
		c.task = &tl.tasks[ti]
		d.DelinearizeInto(int(ti), c.Point)
		run(c)
	}
	return nil
}
