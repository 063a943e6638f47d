package legion

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"distal/internal/machine"
	"distal/internal/obs"
	"distal/internal/tensor"
)

// Handoff wires one region of a stage to the state an earlier stage left
// behind: the consumer's region To adopts the producer's region state for
// Region — the persistent owner instances stay distributed exactly where
// the producer placed them, their contents become valid at the producer's
// flush times, and (in Real mode) the consumer reads the producer's
// canonical tensor. A handoff is the "no gather-to-root" contract of a
// plan DAG: an intermediate never funnels through a single leaf between
// stages.
//
// A handoff is only sound when the two regions agree on shape and on
// placement (the adopting region's owner rects must be the ones the
// producer created); callers that want a different consumer layout insert
// an explicit repartition stage instead.
type Handoff struct {
	// From is the producing stage's index in the stage list; it must have
	// run before the adopting stage.
	From int
	// Region names the region in the producing stage's program.
	Region string
	// To names the adopting region in this stage's program. Empty means
	// the same name as Region.
	To string
}

// Stage is one program of a multi-stage execution: a compiled statement
// plus the handoffs connecting its regions to earlier stages' results.
type Stage struct {
	Prog    *Program
	Inherit []Handoff
	// Label names the stage in traces (typically its output tensor); empty
	// labels render as the stage index alone.
	Label string
	// Repart marks an inserted repartition stage, for trace annotation.
	Repart bool
}

// RunStages executes a list of compiled programs as one plan DAG in stage
// order, under one simulated clock and one memory account. Regions named by
// a Handoff adopt the producing stage's instance state in place —
// intermediates stay distributed between stages — while the remaining
// regions are placed exactly as an initial placement. Each stage's
// accumulators flush before the next stage places, so a consumer's copies
// price against the time the producer's owners actually became valid.
//
// A single program runs as a one-stage call: the per-stage sequence (place,
// launches, flush) is the whole event loop. It aborts with ctx's error at
// the next checkpoint once ctx is done. A Real run is Analyse, then Execute
// on Options.Batch.
func RunStages(ctx context.Context, stages []Stage, opt Options) (*Result, error) {
	if len(opt.Batch) > 0 && !opt.Real {
		return nil, fmt.Errorf("legion: Options.Batch requires Real mode")
	}
	t, err := Analyse(ctx, stages, opt)
	if err != nil {
		return nil, err
	}
	if !opt.Real {
		return &t.res, nil
	}
	if len(opt.Batch) == 0 {
		return nil, fmt.Errorf("legion: a Real run needs Options.Batch: regions hold no data")
	}
	if err := t.Execute(ctx, opt.Batch, opt.RealWorkers); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// Analyse walks the stages once, serially, and returns what the walk
// learned: the simulated Result and, when opt.Real, the tape of tasks a
// Real execution replays (see Tape). Everything it does is independent of
// the data, so a tape analysed once serves any number of executions under
// options with equal Accounting. A simulation records no tasks. Before
// walking, Analyse checks every launch's tables against its domain (see
// Launch.check). It checks ctx between launches and every
// cancelCheckEvery points, and opens an "analyse" span; a simulation's walk
// also opens the "run-stage" and "launch" spans a Real execution leaves to
// Execute. The walk works in a scratch taken from a pool and returned at its
// end (see walkScratch); the tape and its Result never point into it.
func Analyse(ctx context.Context, stages []Stage, opt Options) (*Tape, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("legion: no stages to run")
	}
	if opt.TransientWindow == 0 {
		opt.TransientWindow = defaultTransientWindow
	}
	if opt.TransientWindow < 0 {
		return nil, fmt.Errorf("legion: negative TransientWindow %d", opt.TransientWindow)
	}
	first := stages[0].Prog
	for i := range stages {
		if stages[i].Prog == nil {
			return nil, fmt.Errorf("legion: stage %d has no program", i)
		}
		if stages[i].Prog.Machine != first.Machine {
			return nil, fmt.Errorf("legion: stage %d targets a different machine than stage 0", i)
		}
		for _, l := range stages[i].Prog.Launches {
			if err := l.check(first.Machine); err != nil {
				return nil, err
			}
		}
	}
	actx, asp := obs.Start(ctx, "analyse")
	defer asp.End()
	asp.SetAttr("cached", "false")
	sc := walkPool.Get().(*walkScratch)
	defer sc.release()
	sc.sim.Reset(first.Machine, opt.Params)
	e := &executor{
		walkScratch: sc,
		prog:        first,
		opt:         opt,
		ctx:         ctx,
		s:           &sc.sim,
		lg:          sc.sim.LeafGrid(),
		gpuMem:      first.Machine.LeafMem() == machine.GPUFBMem,
	}
	e.coord = resize(e.coord, e.lg.Rank())
	t := &Tape{real: opt.Real}
	if opt.Real {
		e.tape = t
	}
	for si := range stages {
		st := &stages[si]
		e.prog = st.Prog
		var ssp *obs.Span
		if opt.Real {
			t.stages = append(t.stages, tapeStage{label: st.Label, repart: st.Repart, acc0: len(t.accs)})
		} else {
			_, ssp = obs.Start(actx, "run-stage")
		}
		if ssp != nil {
			ssp.SetAttr("stage", strconv.Itoa(si))
			if st.Label != "" {
				ssp.SetAttr("output", st.Label)
			}
			if st.Repart {
				ssp.SetAttr("repart", "true")
			}
			ssp.SetAttr("launches", strconv.Itoa(len(st.Prog.Launches)))
		}
		if err := e.placeStage(si, st); err != nil {
			ssp.End()
			return nil, err
		}
		for _, l := range st.Prog.Launches {
			if err := ctx.Err(); err != nil {
				ssp.End()
				return nil, err
			}
			ends := e.spareEnds
			if ends == nil {
				ends = e.endRow(e.lg.Size())
			}
			e.spareEnds = nil
			if n := len(e.endHist); n > 0 {
				copy(ends, e.endHist[n-1]) // leaves without a task keep their last end
			}
			e.launchEnds = ends
			lsp := ssp.StartChild("launch")
			lsp.SetAttr("name", l.Name)
			err := e.runLaunch(l)
			lsp.End()
			if err != nil {
				ssp.End()
				return nil, err
			}
			e.endHist = append(e.endHist, ends)
			if len(e.endHist) > opt.TransientWindow {
				e.spareEnds = e.endHist[0]
				e.endHist = e.endHist[:copy(e.endHist, e.endHist[1:])]
			}
			if opt.Synchronous {
				e.s.Barrier()
			}
		}
		e.flushAccumulators()
		if opt.Real {
			t.stages[si].acc1 = len(t.accs)
		}
		ssp.End()
	}
	t.res = Result{
		Time:         e.s.Makespan(),
		Flops:        e.s.FlopsTotal,
		IntraBytes:   e.s.IntraBytes,
		InterBytes:   e.s.InterBytes,
		Copies:       e.s.CopyCount,
		PeakMemBytes: e.s.PeakMem(),
		Trace:        e.trace,
	}
	t.res.OOM, t.res.OOMLeaf, _ = e.s.OOM()
	return t, nil
}

// placeStage resolves stage si's regions: regions named by a Handoff adopt
// the producing stage's instance state (and, in a Real analysis, its data
// slot) in place, the rest are placed exactly as an initial placement.
func (e *executor) placeStage(si int, st *Stage) error {
	inherit := map[string]Handoff{}
	for _, h := range st.Inherit {
		to := h.To
		if to == "" {
			to = h.Region
		}
		if h.From < 0 || h.From >= si {
			return fmt.Errorf("legion: stage %d inherits %s from stage %d, which has not run", si, to, h.From)
		}
		if _, dup := inherit[to]; dup {
			return fmt.Errorf("legion: stage %d inherits region %s twice", si, to)
		}
		if e.stageReg[h.From][h.Region] == nil {
			return fmt.Errorf("legion: stage %d inherits %s from stage %d, which has no such region", si, h.Region, h.From)
		}
		inherit[to] = h
	}
	named := make(map[string]*Region, len(e.prog.Regions))
	for _, r := range e.prog.Regions {
		named[r.Name] = r
		h, adopted := inherit[r.Name]
		if !adopted {
			e.placeRegion(r)
			continue
		}
		delete(inherit, r.Name)
		src := e.stageReg[h.From][h.Region]
		if !slices.Equal(src.Shape, r.Shape) {
			return fmt.Errorf("legion: stage %d region %s has shape %v, inherited %s has %v", si, r.Name, r.Shape, h.Region, src.Shape)
		}
		rs := e.reg[src]
		// The state is indexed by one region's rect ids at a time, so two
		// regions of one stage cannot share it.
		if named[rs.region.Name] == rs.region && rs.region != r {
			return fmt.Errorf("legion: stage %d adopts %s into two regions", si, h.Region)
		}
		if rs.dirty {
			// The producer rewrote the canonical contents at its flush:
			// transient replicas copied before that are stale and must not
			// serve as copy sources in this stage. The persistent owners
			// carry the flushed data (validAt was bumped to the flush end).
			e.dropTransients(rs)
			rs.dirty = false
		}
		rs.rekey(r)
		e.reg[r] = rs
		if e.tape != nil {
			e.slotOf[r] = e.slotOf[src]
		}
	}
	for to := range inherit {
		return fmt.Errorf("legion: stage %d inherits into region %s, which its program does not declare", si, to)
	}
	e.stageReg = append(e.stageReg, named)
	return nil
}

// placeRegion creates the persistent owner instances a fresh region's
// placement dictates, charging their memory; a Real analysis gives the
// region a data slot of its own, bound per execution.
func (e *executor) placeRegion(r *Region) {
	if e.tape != nil {
		e.slotOf[r] = int32(len(e.tape.slots))
		e.tape.slots = append(e.tape.slots, r)
	}
	// Owner rects are narrowed in place in one backing slab: a leaf that
	// owns nothing leaves its slot to the next leaf. Every array comes from
	// the region state the scratch hands out, reused from an earlier walk.
	rs := e.regState()
	n, rank := e.lg.Size(), len(r.Shape)
	bounds := resize(rs.bounds, 2*rank*n)
	ownerRect := func(i int) tensor.Rect {
		k := 2 * rank * i
		return tensor.Rect{Lo: bounds[k : k+rank : k+rank], Hi: bounds[k+rank : k+2*rank : k+2*rank]}
	}
	leaves := resize(rs.leaves, n)[:0]
	for leaf := 0; leaf < n; leaf++ {
		e.lg.DelinearizeInto(leaf, e.coord)
		rect := ownerRect(len(leaves))
		if r.ownerRectInto(rect, e.prog.Machine, e.coord) && !rect.Empty() {
			leaves = append(leaves, leaf)
		}
	}
	w := e.opt.TransientWindow
	lists := resize(rs.lists, n*(2*w+1))
	// The buckets an earlier walk left open go to the spares.
	for _, v := range rs.volumes {
		b := rs.volBuckets[v]
		clear(b)
		rs.spareBuckets = append(rs.spareBuckets, b[:0])
	}
	clear(rs.volBuckets)
	*rs = regState{
		region:       r,
		persistent:   resize(rs.persistent, len(leaves)),
		owners:       rs.owners,
		perLeaf:      resize(rs.perLeaf, n),
		transFIFO:    resize(rs.transFIFO, n),
		transByID:    resize(rs.transByID, len(r.Rects)),
		volBuckets:   rs.volBuckets,
		spareBuckets: rs.spareBuckets,
		volumes:      rs.volumes[:0],
		accHead:      resize(rs.accHead, len(r.Rects)),
		facts:        resize(rs.facts, len(r.Rects)),
		coverIDs:     slices.Grow(rs.coverIDs[:0], len(r.Rects)),
		bounds:       bounds,
		leaves:       leaves,
		lists:        lists,
	}
	for leaf := range n {
		k := leaf * (2*w + 1)
		rs.perLeaf[leaf] = lists[k : k : k+w+1]
		rs.transFIFO[leaf] = lists[k+w+1 : k+w+1 : k+2*w+1]
	}
	for i, leaf := range leaves {
		inst := &rs.persistent[i]
		*inst = instance{leaf: leaf, rect: ownerRect(i), persistent: true}
		inst.bytes = r.Bytes(inst.rect)
		rs.perLeaf[leaf] = append(rs.perLeaf[leaf], inst)
		e.s.Alloc(leaf, inst.bytes)
	}
	rs.owners.build(rs.persistent, rank)
	e.reg[r] = rs
}

// dropTransients frees every live transient instance of a region and resets
// its transient indexes; the persistent owners are untouched.
func (e *executor) dropTransients(rs *regState) {
	for leaf, fifo := range rs.transFIFO {
		for _, inst := range fifo {
			e.s.Free(leaf, inst.bytes)
			rs.perLeaf[leaf] = removeInst(rs.perLeaf[leaf], inst)
			e.evict(rs, inst)
		}
		rs.transFIFO[leaf] = fifo[:0]
	}
}

// rekey indexes an adopted region state by the rect ids of r, the adopting
// region: each live transient group takes the id of its rect in r.Rects, and
// a group whose rect r never requests takes an id past the table's end —
// never an exact match, it stays a containment candidate through its volume
// bucket. The stage's accumulators have flushed, so the chains start empty,
// and the rect facts are learnt again under the new ids.
func (rs *regState) rekey(r *Region) {
	old := rs.transByID
	rs.region = r
	rs.transByID = make([]*transGroup, len(r.Rects))
	rs.accHead = make([]*accumulator, len(r.Rects))
	rs.facts, rs.coverIDs = resize(rs.facts, len(r.Rects)), rs.coverIDs[:0]
	live := map[tensor.RectKey]*transGroup{}
	for _, g := range old {
		if g != nil {
			g.id = -1
			live[g.rect.Key()] = g
		}
	}
	if len(live) == 0 {
		return
	}
	for id, rect := range r.Rects {
		if g := live[rect.Key()]; g != nil {
			g.id = int32(id)
			rs.transByID[id] = g
		}
	}
	for _, g := range old {
		if g != nil && g.id < 0 {
			g.id = int32(len(rs.transByID))
			rs.transByID = append(rs.transByID, g)
		}
	}
}
