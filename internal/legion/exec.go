package legion

import (
	"context"
	"fmt"
	"sort"

	"distal/internal/machine"
	"distal/internal/sim"
	"distal/internal/tensor"
)

// Options controls one execution of a program.
type Options struct {
	// Params is the simulated machine's cost model.
	Params sim.Params
	// Real executes leaf kernels on actual data (for correctness checks):
	// the run is Analyse, which records the tasks on a Tape, then
	// Tape.Execute on the bound data.
	Real bool
	// Batch binds per-execution canonical data by region name for N
	// independent problem instances; a single run is a batch of one, and a
	// Real run needs at least one instance (regions hold no data). A
	// cached (immutable, data-free) program can thereby run Real-mode
	// executions on different tensors concurrently: the binding lives in the
	// execution, not in the shared plan. The instances share one analysis —
	// simulated-time accounting runs exactly once, so metrics are identical
	// to a single-instance run — while every (instance × task group) drains
	// over the worker pool, so instances never serialize against each other.
	// Requires Real. Instances must not share output tensors with each other
	// (inputs may be shared).
	Batch []map[string]*tensor.Dense
	// Synchronous disables communication/computation overlap: copies cannot
	// start before the destination processor is idle, and a global barrier
	// separates launches. Models non-overlapping baselines (ScaLAPACK, CTF).
	Synchronous bool
	// OwnerOnly restricts copy sources to persistent (owner) instances,
	// disabling nearest-valid-copy source selection. Ablation knob.
	OwnerOnly bool
	// TransientWindow is how many transient instances per (region, leaf) are
	// kept live for reuse (double buffering and systolic relay). Default 2.
	TransientWindow int
	// RealWorkers bounds the worker pool that executes Real-mode leaf
	// kernels. Kernel invocations for independent tasks of one launch —
	// tasks writing through distinct, non-overlapping accumulators — fan out
	// over the pool; simulated-time accounting happens in the analysis, so
	// metrics are identical at any worker count, and tasks sharing an
	// accumulator run in point order, so Real results are bit-identical to
	// serial execution. Zero means min(GOMAXPROCS, 16); 1 disables the pool.
	// It does not affect the analysis.
	RealWorkers int
	// Trace records every copy for inspection.
	Trace bool
}

// defaultTransientWindow is the transient window a zero
// Options.TransientWindow means.
const defaultTransientWindow = 2

// Accounting is the part of Options an analysis depends on: two option sets
// with equal Accounting walk identically, so a tape analysed under one
// serves the other. Real, Batch and RealWorkers only matter to Execute.
type Accounting struct {
	Params          sim.Params
	Synchronous     bool
	OwnerOnly       bool
	TransientWindow int
	Trace           bool
}

// Accounting returns the options' analysis-shaping fields, with the
// transient window defaulted.
func (o Options) Accounting() Accounting {
	w := o.TransientWindow
	if w == 0 {
		w = defaultTransientWindow
	}
	return Accounting{Params: o.Params, Synchronous: o.Synchronous, OwnerOnly: o.OwnerOnly, TransientWindow: w, Trace: o.Trace}
}

// CopyRecord describes one scheduled copy (Trace mode).
type CopyRecord struct {
	Launch string
	Point  []int
	Region string
	Rect   tensor.Rect
	Src    int
	Dst    int
	Start  float64
	End    float64
}

// Result summarizes one execution.
type Result struct {
	// Time is the simulated makespan in seconds.
	Time float64
	// Flops is the total floating-point work scheduled.
	Flops float64
	// IntraBytes and InterBytes are the communication volumes moved over
	// intra-node links and the inter-node network.
	IntraBytes int64
	InterBytes int64
	// Copies is the number of scheduled copy operations.
	Copies int64
	// PeakMemBytes is the largest per-leaf memory high-water mark.
	PeakMemBytes int64
	// OOM reports that a leaf memory exceeded its capacity, and which one.
	OOM     bool
	OOMLeaf int
	Trace   []CopyRecord
}

// GFlopsPerSec returns achieved GFLOP/s across the whole machine.
func (r *Result) GFlopsPerSec() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.Flops / r.Time / 1e9
}

// An instance's fields are ordered by use: the source scan reads the first
// four of every candidate, and the local scan group, bytes and persistent
// before rect, so each scan's fields lie within 64 bytes.
type instance struct {
	leaf       int
	validAt    float64
	seq        int64       // installation order (transients: the candidate merge's key)
	next, prev *instance   // a transient's neighbours in its group
	group      *transGroup // a transient's group (nil for owners)
	bytes      int64
	persistent bool
	rect       tensor.Rect
}

// transGroup is the set of live transient instances sharing one rect, a
// list in installation order linked through the instances, n long.
// Grouping makes ensureLocal's candidate search consider distinct rects
// rather than every instance; installation order across groups is restored
// by merging the lists on instance.seq. A group lives exactly as long as it
// has instances: it is indexed by rect id (exact-match candidates) and by
// volume bucket (strict-containment candidates), and idx is its position in
// the bucket for O(1) removal. An emptied group goes back to the executor's
// slab.
type transGroup struct {
	id          int32
	rect        tensor.Rect
	vol         int64
	idx         int
	n           int
	first, last *instance
}

func (g *transGroup) push(inst *instance) {
	inst.prev, inst.next = g.last, nil
	if g.last == nil {
		g.first = inst
	} else {
		g.last.next = inst
	}
	g.last = inst
	g.n++
}

func (g *transGroup) remove(inst *instance) {
	if inst.prev == nil {
		g.first = inst.next
	} else {
		inst.prev.next = inst.next
	}
	if inst.next == nil {
		g.last = inst.prev
	} else {
		inst.next.prev = inst.prev
	}
	g.n--
}

// rectFacts are what a walk learns once about a requirement rect, by its
// id: its volume and bytes (a rect is empty when its volume is 0), learnt
// when the id is first required, and the persistent owners containing it,
// regState.coverIDs[cover:cover+covers] (indices into persistent, in
// placement order), learnt at its first copy (covers is -1 until then).
// Owners are immutable for the walk, so no fact ever changes.
type rectFacts struct {
	vol, bytes    int64
	cover, covers int32
	known         bool
}

type regState struct {
	region *Region
	// persistent holds the owner instances, one per owning leaf in leaf
	// (placement) order; owners indexes their rects.
	persistent []instance
	owners     ownerIndex
	// perLeaf[leaf] is every live instance on the leaf: its owner first, if
	// it has one (placeRegion appends owners before any transient), then
	// its transients in eviction order. The lists are carved from one
	// per-region slab with a fixed capacity of TransientWindow+1.
	perLeaf [][]*instance

	// dirty marks that some launch wrote the region since its transients
	// were last valid: when a later stage adopts the region (RunStages),
	// the stale transient replicas are dropped so only the flushed owners
	// serve as copy sources. Within one stage the flag is inert.
	dirty bool

	// Live transient instances grouped by rect, indexed two ways so the
	// candidate search never scans the whole group population:
	// transByID[id] is the group whose rect is region.Rects[id] (the
	// exact-match candidates, one slice load), and volBuckets[v] holds the
	// groups of volume v — only buckets of strictly larger volume can
	// strictly contain a requirement rect (equal-volume containment implies
	// equality), and in tiled workloads every transient shares the
	// requirement's volume, so the strict scan is empty. volumes lists the
	// occupied bucket volumes ascending, and exactly the map's keys: an
	// emptied bucket leaves the map, and its storage joins spareBuckets,
	// which new buckets open on, in this walk or a later one. A stage
	// adopting the state re-indexes the groups by its own region's ids
	// (rekey).
	transByID    []*transGroup
	volBuckets   map[int64][]*transGroup
	spareBuckets [][]*transGroup
	volumes      []int64

	// accHead[id] chains the stage's accumulators of rect id, one per
	// writing leaf, in opening order; the head holds the chain's tail. A
	// lookup scans the first accScan members, and accOf finds the rest by
	// accKey(id, leaf): a rect every point of a launch reduces into costs a
	// bounded scan and one hash per point, not a scan of every leaf that
	// wrote it before.
	accHead []*accumulator
	accOf   map[uint64]*accumulator

	// facts[id] memoizes rect id's facts (factsOf), coverIDs backing their
	// owner covers. Both start empty when the region is placed or adopted.
	facts    []rectFacts
	coverIDs []int32

	// The backings of the owner rects, the owning leaves and the per-leaf
	// lists, kept for the walk that reuses the state.
	bounds []int
	leaves []int
	lists  []*instance
}

// accumulator is a task-local output buffer covering a rect of a region, as
// the accounting sees it: opened by the first task writing the rect on a
// leaf, charged while live, and flushed into the region's owners at the
// stage's end. Its Real side is the tape's tapeAcc with the same id.
type accumulator struct {
	region  *Region
	rect    tensor.Rect
	rectID  int32
	combine Privilege // ReduceSum accumulates; others overwrite
	inPlace bool      // writes go directly to the owner instance
	leaf    int
	lastUse float64
	id      int32        // index into the tape's accumulators (Real analyses)
	next    *accumulator // the next accumulator of the same rect
	tail    *accumulator // on a chain's head: its last accumulator
}

// accScan is how many of a chain's accumulators a lookup scans before it
// hashes. Over the benchmark's workloads, lookups pass at most 3 others but
// in tune-gemm, whose chains reach 8 (a third of lookups pass 4, none 8),
// and paper-sweep, where 2.5 % pass 8 on rects 16 to 1 024 leaves reduce
// into (GPU COSMA, MTTKRP, innerprod). At 8, tune-gemm never hashes.
const accScan = 8

// accKey keys rect id's accumulator on leaf in regState.accOf.
func accKey(id int32, leaf int) uint64 {
	return uint64(uint32(id))<<32 | uint64(uint32(leaf))
}

type executor struct {
	*walkScratch
	prog     *Program
	opt      Options
	ctx      context.Context
	s        *sim.Sim
	lg       machine.Grid
	gpuMem   bool
	stageReg []map[string]*Region // per completed stage: region name -> region, for handoff resolution
	trace    []CopyRecord
	instSeq  int64 // next transient installation sequence number
	steps    int   // points since the last cancellation checkpoint

	// A Real analysis records its tasks on tape (nil when simulating), and
	// slotOf (in the scratch) maps every placed or adopted region to its
	// data slot.
	tape *Tape

	// Transient instances, their groups and accumulators come from the
	// scratch's slabs, in chunks sized from the launch in progress: points ×
	// read requirements bounds the transients it installs, points × write
	// requirements the accumulators it opens.
	instChunk int
	accChunk  int

	// Double-buffering throttle: copies for a leaf's task in launch s may
	// not start before its task in launch s-TransientWindow completed
	// (prefetch depth matches the instance window, as Legion's deferred
	// execution is bounded by mapper-allocated staging buffers). endHist
	// (in the scratch) holds the per-leaf task end times of the recent
	// launches, oldest first.
	launchEnds []float64 // per-leaf task end times of the launch in progress
	spareEnds  []float64 // the last launch dropped from endHist, reused by the next
}

// Run executes the program under the given options: RunStages of the
// program as its one stage, without cancellation.
func Run(p *Program, opt Options) (*Result, error) {
	return RunStages(context.Background(), []Stage{{Prog: p}}, opt)
}

// cancelCheckEvery is how many domain points the executor processes between
// cancellation checkpoints: frequent enough that cancellation is prompt
// (points cost microseconds in simulation), rare enough that the atomic
// context poll stays off the per-point profile.
const cancelCheckEvery = 256

// runLaunch walks the launch domain once, serially, by linearized index,
// doing all simulated-time accounting (copy pricing, compute charging,
// accumulator lifetimes) exactly as the point order dictates. A Real
// analysis also records each task on the tape — its read regions and write
// accumulators — and the launch's write-safety groups at its end; no kernel
// runs here, so the cost model never sees the worker pool and simulated
// metrics are identical at any worker count. The walk allocates nothing per
// point: it reads the launch's tables by index into a reused requirement
// buffer and a reused write-target buffer, and resolves the launch's region
// states once.
func (e *executor) runLaunch(l *Launch) error {
	n, leaves := l.Domain.Size(), e.lg.Size()
	nt := len(l.Regions)
	reads := 0
	for _, p := range l.Privs {
		if p == ReadOnly {
			reads++
		}
	}
	e.instChunk, e.accChunk = n*reads, n*(nt-reads)
	if cap(e.reqs) < nt {
		e.reqs = make([]Req, nt)
	}
	reqs := e.reqs[:nt]
	e.reqState = resize(e.reqState, nt)
	for t, r := range l.Regions {
		e.reqState[t] = e.reg[r]
	}
	rec := e.tape.launch(l, n)
	for lin := 0; lin < n; lin++ {
		if e.steps++; e.steps >= cancelCheckEvery {
			e.steps = 0
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		leaf := lin % leaves
		if l.Leaf != nil {
			leaf = int(l.Leaf[lin])
		}
		for t := range reqs {
			reqs[t] = l.Req(lin, t)
		}
		issueAt := 0.0
		if e.opt.Synchronous {
			issueAt = e.s.ProcFree(leaf)
		} else if len(e.endHist) >= e.opt.TransientWindow {
			// Prefetch depth = TransientWindow launches: the copy may start
			// once the leaf's task TransientWindow launches ago finished.
			issueAt = e.endHist[0][leaf]
		}
		taskReady := issueAt
		if rec != nil {
			rec.addTask()
		}
		taskAccs := e.taskAccs[:0]
		for qi := range reqs {
			q, rs := &reqs[qi], e.reqState[qi]
			f := rs.factsOf(q)
			if f.vol == 0 {
				continue
			}
			switch q.Priv {
			case ReadOnly:
				at, err := e.ensureLocal(l, lin, q, rs, f, leaf, issueAt)
				if err != nil {
					return err
				}
				if at > taskReady {
					taskReady = at
				}
				if rec != nil {
					rec.addRead(q.Region.Name, e.slotOf[q.Region])
				}
			default:
				acc := e.writeTarget(q, rs, leaf)
				taskAccs = append(taskAccs, acc)
				if rec != nil {
					rec.addWrite(acc.id, e.tape.accs)
				}
			}
		}
		c := &l.Cost[lin]
		end := e.s.Compute(leaf, c.Flops, c.MemBytes, taskReady)
		if e.launchEnds != nil && end > e.launchEnds[leaf] {
			e.launchEnds[leaf] = end
		}
		for _, a := range taskAccs {
			if end > a.lastUse {
				a.lastUse = end
			}
		}
		e.taskAccs = taskAccs[:0]
	}
	if rec != nil {
		rec.group(e.tape.accs)
	}
	return nil
}

// ensureLocal makes the data of requirement q, of region state rs and
// facts f, available in leaf's memory and returns the time at which it is
// valid there.
//
// A miss copies the whole rect from the candidate source whose copy ends
// first, ties going to the earlier candidate. The candidates are the owners
// containing the rect, in placement order, then the live transients
// containing it in installation order: the rect's own group (found by id)
// and every group of strictly larger volume containing it (none in pure
// tilings; equal-volume containment is equality), merged on seq. That is
// exactly an exhaustive ordered scan over every instance, at the cost of the
// candidates alone: the owner cover is memoized per rect id, each group's
// list is already in seq order, and the pricer reads the destination's
// state once.
func (e *executor) ensureLocal(l *Launch, lin int, q *Req, rs *regState, f *rectFacts, leaf int, issueAt float64) (float64, error) {
	// Fast path: an instance on this leaf already covers the rect. The
	// per-leaf population is small (the persistent owner plus at most
	// TransientWindow transients), so the scan beats any keyed memo here.
	// Only the rect's own group holds transients equal to it, and an
	// instance of the same volume contains only an equal rect, so the rect
	// comparison runs only for larger instances and equal-sized owners.
	g := rs.transByID[q.ID]
	for _, inst := range rs.perLeaf[leaf] {
		own := g != nil && inst.group == g
		couldHold := inst.bytes > f.bytes || inst.persistent && inst.bytes == f.bytes
		if own || couldHold && inst.rect.ContainsRect(q.Rect) {
			return maxf(inst.validAt, issueAt), nil
		}
	}
	covers := rs.coverOf(q, f)
	replicas := len(covers)
	heads := e.heads[:0]
	if !e.opt.OwnerOnly {
		if g != nil {
			heads = append(heads, g.first)
			replicas += g.n
		}
		for i := len(rs.volumes) - 1; i >= 0 && rs.volumes[i] > f.vol; i-- {
			for _, big := range rs.volBuckets[rs.volumes[i]] {
				if big.rect.ContainsRect(q.Rect) {
					heads = append(heads, big.first)
					replicas += big.n
				}
			}
		}
	}
	e.heads = heads
	if replicas == 0 {
		// No single instance holds the whole rect: gather piecewise from the
		// persistent owners.
		return e.gather(l, lin, q, rs, leaf, issueAt, f.bytes)
	}
	p := &e.pricer
	e.s.PriceCopies(p, leaf, f.bytes, issueAt, e.gpuMem, replicas)
	var best *instance
	bestEnd := 0.0
	for _, id := range covers {
		c := &rs.persistent[id]
		if end := p.End(c.leaf, c.validAt); best == nil || end < bestEnd {
			best, bestEnd = c, end
		}
	}
	// Merge the groups' lists on seq: the earliest-installed head is priced
	// and replaced by its successor; an exhausted list leaves the heads.
	for len(heads) > 0 {
		k := 0
		for i := 1; i < len(heads); i++ {
			if heads[i].seq < heads[k].seq {
				k = i
			}
		}
		c := heads[k]
		if heads[k] = c.next; c.next == nil {
			last := len(heads) - 1
			heads[k], heads[last] = heads[last], nil
			heads = heads[:last]
		}
		if end := p.End(c.leaf, c.validAt); best == nil || end < bestEnd {
			best, bestEnd = c, end
		}
	}
	start := maxf(issueAt, best.validAt)
	end := e.s.Copy(best.leaf, leaf, f.bytes, start, e.gpuMem, replicas)
	e.record(l, lin, q.Region, q.Rect, best.leaf, leaf, start, end)
	e.installTransient(rs, leaf, q.Rect, q.ID, end, f.bytes)
	return end, nil
}

// gather copies the pieces of q.Rect held by persistent owners and installs
// a combined transient instance. The owner index bounds the walk to the
// owners actually overlapping the rect.
func (e *executor) gather(l *Launch, lin int, q *Req, rs *regState, leaf int, issueAt float64, bytes int64) (float64, error) {
	covered := int64(0)
	latest := issueAt
	for _, op := range rs.piecesFor(q.Rect) {
		covered += op.bytes
		if op.inst.leaf == leaf {
			latest = maxf(latest, op.inst.validAt)
			continue
		}
		start := maxf(issueAt, op.inst.validAt)
		end := e.s.Copy(op.inst.leaf, leaf, op.bytes, start, e.gpuMem, 1)
		e.record(l, lin, q.Region, op.piece, op.inst.leaf, leaf, start, end)
		latest = maxf(latest, end)
	}
	if covered < bytes {
		return 0, fmt.Errorf("legion: no instances cover %s of region %s (launch %s point %v)",
			q.Rect, q.Region.Name, l.Name, l.Domain.Delinearize(lin))
	}
	e.installTransient(rs, leaf, q.Rect, q.ID, latest, bytes)
	return latest, nil
}

// installTransient installs a transient instance of rect on leaf, charging
// its memory, and evicts the leaf's oldest transient of the region once the
// window is full. The new instance is charged before the evicted one is
// freed, so the memory high-water mark counts both.
func (e *executor) installTransient(rs *regState, leaf int, rect tensor.Rect, id int32, validAt float64, bytes int64) {
	g := rs.transByID[id]
	if g == nil {
		g = e.groups.get(e.instChunk)
		*g = transGroup{id: id, rect: rect, vol: int64(rect.Volume())}
		rs.transByID[id] = g
		rs.addToBucket(g)
	}
	inst := e.insts.get(e.instChunk)
	*inst = instance{
		leaf: leaf, rect: rect, group: g, seq: e.instSeq,
		validAt: validAt, bytes: bytes,
	}
	e.instSeq++
	g.push(inst)
	e.s.Alloc(leaf, bytes)
	list := rs.perLeaf[leaf]
	if own := owned(list); len(list)-own == e.opt.TransientWindow {
		old := list[own]
		list = list[:own+copy(list[own:], list[own+1:])]
		e.s.Free(leaf, old.bytes)
		e.evict(rs, old)
	}
	rs.perLeaf[leaf] = append(list, inst)
}

// owned returns how many of a leaf's instances are owners: 1 when the list
// starts with the leaf's owner, else 0.
func owned(list []*instance) int {
	if len(list) > 0 && list[0].persistent {
		return 1
	}
	return 0
}

// evict retires a transient that has left its leaf's lists: it leaves its
// group (recycling the group once empty) and returns to the slab.
func (e *executor) evict(rs *regState, inst *instance) {
	g := inst.group
	g.remove(inst)
	if g.first == nil {
		rs.transByID[g.id] = nil
		rs.dropFromBucket(g)
		*g = transGroup{}
		e.groups.put(g)
	}
	*inst = instance{}
	e.insts.put(inst)
}

// addToBucket registers a new group in its volume bucket, opening the
// bucket (on spare storage, recording its volume in the sorted volume list)
// if needed.
func (rs *regState) addToBucket(g *transGroup) {
	b, ok := rs.volBuckets[g.vol]
	if !ok {
		if n := len(rs.spareBuckets); n > 0 {
			b, rs.spareBuckets = rs.spareBuckets[n-1], rs.spareBuckets[:n-1]
		}
		i := sort.Search(len(rs.volumes), func(i int) bool { return rs.volumes[i] >= g.vol })
		rs.volumes = append(rs.volumes, 0)
		copy(rs.volumes[i+1:], rs.volumes[i:])
		rs.volumes[i] = g.vol
	}
	g.idx = len(b)
	rs.volBuckets[g.vol] = append(b, g)
}

// dropFromBucket removes an emptied group from its volume bucket
// (swap-remove via the group's stored index), closing the bucket — its
// storage joins the spares — when it was the last group of that volume.
func (rs *regState) dropFromBucket(g *transGroup) {
	b := rs.volBuckets[g.vol]
	last := len(b) - 1
	b[g.idx] = b[last]
	b[g.idx].idx = g.idx
	b[last] = nil
	b = b[:last]
	if len(b) > 0 {
		rs.volBuckets[g.vol] = b
		return
	}
	rs.spareBuckets = append(rs.spareBuckets, b)
	delete(rs.volBuckets, g.vol)
	i := sort.Search(len(rs.volumes), func(i int) bool { return rs.volumes[i] >= g.vol })
	rs.volumes = append(rs.volumes[:i], rs.volumes[i+1:]...)
}

// writeTarget returns the accumulator for a write requirement of region
// state rs, preferring in-place updates when the computing leaf owns the
// written rect.
func (e *executor) writeTarget(q *Req, rs *regState, leaf int) *accumulator {
	head := rs.accHead[q.ID]
	a, scanned := head, 0
	for ; scanned < accScan && a != nil; scanned++ {
		if a.leaf == leaf {
			return a
		}
		a = a.next
	}
	if a != nil {
		if found := rs.accOf[accKey(q.ID, leaf)]; found != nil {
			return found
		}
	}
	e.lg.DelinearizeInto(leaf, e.coord)
	rank := len(q.Region.Shape)
	if cap(e.rectBuf) < 2*rank {
		e.rectBuf = make([]int, 2*rank)
	}
	owned := tensor.Rect{Lo: e.rectBuf[:rank], Hi: e.rectBuf[rank : 2*rank]}
	inPlace := q.Region.ownerRectInto(owned, e.prog.Machine, e.coord) && owned.ContainsRect(q.Rect)
	a = e.accSlab.get(e.accChunk)
	*a = accumulator{
		region:  q.Region,
		rect:    q.Rect,
		rectID:  q.ID,
		combine: q.Priv,
		inPlace: inPlace,
		leaf:    leaf,
	}
	if !inPlace {
		// Simulated memory is charged once regardless of batch size: the
		// accounting walk models one instance, and batching must not perturb
		// its metrics.
		e.s.Alloc(leaf, q.Region.Bytes(q.Rect))
	}
	if e.tape != nil {
		a.id = int32(len(e.tape.accs))
		ta := tapeAcc{name: q.Region.Name, slot: e.slotOf[q.Region], rect: q.Rect, inPlace: inPlace, reduce: q.Priv == ReduceSum}
		if !inPlace {
			ta.shape = make([]int, q.Rect.Rank())
			for d := range ta.shape {
				ta.shape[d] = q.Rect.Extent(d)
			}
		}
		e.tape.accs = append(e.tape.accs, ta)
	}
	if head == nil {
		a.tail = a
		rs.accHead[q.ID] = a
	} else {
		head.tail.next, head.tail = a, a
		if scanned == accScan { // a lands past the scanned prefix
			if rs.accOf == nil {
				rs.accOf = map[uint64]*accumulator{}
			}
			rs.accOf[accKey(q.ID, leaf)] = a
		}
	}
	e.accSeq = append(e.accSeq, a)
	return a
}

// flushAccumulators folds every non-in-place accumulator back into the
// owner instances of its region. Groups of ReduceSum accumulators covering
// the same rect are merged by a binary combining tree (as Legion's reduction
// trees do) before the final copy to the owner; other privileges copy
// directly. Copy and combine costs are charged. The data side of the flush —
// folding task-local buffers into the region's data in accSeq order — is
// Execute's, in the order the tape records.
//
// For multi-stage runs the flush also publishes the written state to later
// stages: every written region is marked dirty (stale transients are dropped
// when a stage adopts it), the owner instances' validAt advances to the time
// their piece of the flush landed — so a consumer stage's copies start no
// earlier than the data actually existed — and the non-in-place scratch
// buffers are freed. A single-stage run sees none of this: the flush is the
// last event, validAt is never read again, and freeing scratch cannot lower
// the already-recorded memory high-water mark.
func (e *executor) flushAccumulators() {
	for _, a := range e.accSeq {
		e.reg[a.region].dirty = true
	}
	// Group same-rect accumulators per region for tree merging: a rect's
	// chain is taken (and unlinked) at its first non-in-place member in
	// accSeq, so groups run in first-appearance order.
	for _, a := range e.accSeq {
		if a.inPlace {
			continue
		}
		rs := e.reg[a.region]
		head := rs.accHead[a.rectID]
		if head == nil {
			continue
		}
		rs.accHead[a.rectID] = nil
		accs := e.flushBuf[:0]
		for x := head; x != nil; x = x.next {
			if !x.inPlace {
				accs = append(accs, x)
			}
		}
		e.flushBuf = accs
		replicas := len(accs)
		region := a.region
		rect := a.rect
		bytes := region.Bytes(rect)
		if accs[0].combine == ReduceSum && len(accs) > 1 {
			// Binary combining tree: halve the accumulator set each round.
			for len(accs) > 1 {
				half := (len(accs) + 1) / 2
				for i := half; i < len(accs); i++ {
					src, dst := accs[i], accs[i-half]
					ready := maxf(src.lastUse, dst.lastUse)
					end := e.s.Copy(src.leaf, dst.leaf, bytes, ready, e.gpuMem, replicas)
					e.record(nil, 0, region, rect, src.leaf, dst.leaf, ready, end)
					// The destination folds the contribution in.
					dst.lastUse = e.s.Compute(dst.leaf, float64(rect.Volume()), float64(bytes), end)
				}
				accs = accs[:half]
			}
		}
		// Copy (or piece-wise scatter) the surviving accumulators to the
		// owner instances. All accumulators of the group share one rect, so
		// the owner overlaps are resolved once through the owner index
		// rather than intersecting every accumulator with every owner of
		// the region.
		pieces := rs.piecesFor(rect)
		for _, a := range accs {
			for _, op := range pieces {
				if op.inst.leaf == a.leaf {
					op.inst.validAt = maxf(op.inst.validAt, a.lastUse)
					continue
				}
				end := e.s.Copy(a.leaf, op.inst.leaf, op.bytes, a.lastUse, e.gpuMem, replicas)
				e.record(nil, 0, region, op.piece, a.leaf, op.inst.leaf, a.lastUse, end)
				op.inst.validAt = maxf(op.inst.validAt, end)
			}
		}
	}
	// In-place accumulators wrote straight into their owner instance; its
	// contents are valid once the last writing task retired. Non-in-place
	// scratch has been folded into the owners above and is released.
	for _, a := range e.accSeq {
		rs := e.reg[a.region]
		rs.accHead[a.rectID] = nil
		if len(rs.accOf) > 0 {
			clear(rs.accOf)
		}
		if a.inPlace {
			for _, inst := range rs.perLeaf[a.leaf] {
				if inst.persistent && inst.rect.ContainsRect(a.rect) {
					inst.validAt = maxf(inst.validAt, a.lastUse)
				}
			}
			continue
		}
		e.s.Free(a.leaf, a.region.Bytes(a.rect))
	}
	e.accSeq = e.accSeq[:0]
}

// record appends a copy to the trace (Trace mode): a copy of launch l's
// point lin, or of the stage-end flush when l is nil. The rect is copied:
// owner pieces are scratch that the next piecesFor overwrites.
func (e *executor) record(l *Launch, lin int, region *Region, rect tensor.Rect, src, dst int, start, end float64) {
	if !e.opt.Trace {
		return
	}
	name, point := "flush", []int(nil)
	if l != nil {
		name, point = l.Name, l.Domain.Delinearize(lin)
	}
	e.trace = append(e.trace, CopyRecord{
		Launch: name,
		Point:  point,
		Region: region.Name,
		Rect:   tensor.NewRect(rect.Lo, rect.Hi),
		Src:    src,
		Dst:    dst,
		Start:  start,
		End:    end,
	})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// SortTrace orders a trace by start time then region for stable golden
// comparisons.
func SortTrace(tr []CopyRecord) {
	sort.SliceStable(tr, func(i, j int) bool {
		if tr[i].Start != tr[j].Start {
			return tr[i].Start < tr[j].Start
		}
		return tr[i].Region < tr[j].Region
	})
}
