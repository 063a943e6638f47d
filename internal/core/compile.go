// Package core is the DISTAL compiler: it combines a tensor index notation
// statement, the tensors' formats (data distributions), and a schedule
// (computation distribution) and lowers them to a Legion program (§5, §6).
//
// Lowering follows the paper's pipeline:
//
//  1. extents of all index variables are resolved against tensor shapes;
//  2. distributed loops become the domain of index task launches (§6.2),
//     with directly nested distributed loops flattened into one
//     multi-dimensional launch;
//  3. sequential loops that carry a communicate anchor are hoisted to the
//     control program: one launch is issued per iteration, so the runtime
//     aggregates communication at exactly the scheduled granularity;
//  4. region requirement rectangles are derived by the bounds analysis of
//     internal/schedule (interval arithmetic over derived index variables,
//     exact under rotation when the offsets are fixed);
//  5. leaf loops become the task body: an analytic FLOP/byte model for
//     simulation and a real einsum kernel for validated execution, lowered
//     once per plan to a flat register program over raw tensor storage
//     (kernelprog.go).
//
// Compiled programs are immutable: every launch's per-point region
// requirements are materialized eagerly at compile time, as one rect id per
// point and tensor in a launch-wide slab (legion.Launch.IDs), so a plan can
// be cached (keyed by PlanKey, a content hash over statement,
// shapes, formats, schedule text, and machine) and simulated concurrently
// by many goroutines, and repeated executions skip the bounds analysis
// entirely. One routine (materializer.build) analyzes every point and writes
// it to a fixed place in its launch's slab, so materialization is the same
// under any pool size: a bounded pool takes units — a whole launch of a
// multi-launch plan, or a point range of a single launch — and each worker's
// scratch (including its rect tables and the requirements of tensors
// anchored at the task level) persists across its units and is pooled
// across compiles. Each region's distinct rects are numbered once, in
// first-appearance order, by an open-addressed table of rect ids probed by
// their bounds (recttable.go), into the region's rect table
// (legion.Region.Rects), and a launch stores only each requirement's id in
// that table, so the runtime indexes its per-rect state by id.
package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"distal/internal/distnot"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/machine"
	"distal/internal/obs"
	"distal/internal/schedule"
	"distal/internal/tensor"
)

// TensorDecl describes one tensor of the computation at compile time.
type TensorDecl struct {
	Name      string
	Shape     []int
	Placement *distnot.Placement
}

// Input is everything the compiler needs.
type Input struct {
	Stmt     *ir.Assignment
	Machine  *machine.Machine
	Tensors  map[string]*TensorDecl
	Schedule *schedule.Schedule
}

// Compile lowers the scheduled statement to a Legion program.
func Compile(in Input) (*legion.Program, error) {
	return CompileContext(context.Background(), in)
}

// cancelCheckPoints is how many domain points a materialization worker
// analyzes between cancellation checkpoints.
const cancelCheckPoints = 1024

// CompileContext is Compile under a context: the launch-materialization
// workers poll ctx at every unit of work and every cancelCheckPoints domain
// points, and the whole compile aborts with ctx's error, so a canceled
// request stops burning the pool promptly even mid-launch. The context's
// current span (the caller's compile span) gains a block_vars attribute: how
// many leaf variables the compiled kernel's block plan spans, 0 to 3.
func CompileContext(ctx context.Context, in Input) (*legion.Program, error) {
	c, err := newCompiler(ctx, in)
	if err != nil {
		return nil, err
	}
	return c.lower()
}

// newCompiler validates the input and resolves its extents.
func newCompiler(ctx context.Context, in Input) (*compiler, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sched := in.Schedule
	if sched == nil {
		sched = schedule.New(in.Stmt)
	}
	if err := sched.Err(); err != nil {
		return nil, err
	}
	if sched.Stmt() != in.Stmt {
		return nil, fmt.Errorf("core: schedule was built for a different statement")
	}
	shapes := map[string][]int{}
	for name, t := range in.Tensors {
		shapes[name] = t.Shape
	}
	for _, name := range in.Stmt.TensorNames() {
		if _, ok := in.Tensors[name]; !ok {
			return nil, fmt.Errorf("core: no tensor declaration for %s", name)
		}
	}
	if err := in.Stmt.Validate(shapes); err != nil {
		return nil, err
	}
	origExt, err := in.Stmt.VarExtents(shapes)
	if err != nil {
		return nil, err
	}
	extents, err := sched.Extents(origExt)
	if err != nil {
		return nil, err
	}
	for _, t := range in.Tensors {
		if t.Placement != nil {
			if err := t.Placement.Validate(len(t.Shape), in.Machine); err != nil {
				return nil, fmt.Errorf("core: tensor %s: %w", t.Name, err)
			}
		}
	}

	return &compiler{
		in:      in,
		ctx:     ctx,
		sched:   sched,
		extents: extents,
		order:   sched.Order(),
		dist:    sched.Distributed(),
	}, nil
}

type compiler struct {
	in      Input
	ctx     context.Context
	sched   *schedule.Schedule
	extents map[string]int
	order   []string
	dist    []string

	regions map[string]*legion.Region
	seqVars []string // sequential control loops (between dist prefix and leaves)
	leaf    []string // leaf loop variables

	// Point-independent plan state, hoisted out of the per-point loop:
	// the compiled bounds evaluator, environment variable ids, per-tensor
	// access plans, the distinct anchor-cut groups, and the compiled
	// Real-mode kernel program (shared by every launch).
	ev            *schedule.Evaluator
	distIDs       []int
	seqIDs        []int // ids of seqVars, in order
	tensors       []tensorPlan
	regionList    []*legion.Region   // the tensors' regions, every launch's Regions
	privs         []legion.Privilege // the tensors' privileges, every launch's Privs
	cuts          []cutGroup
	flopsPerPoint float64
	writePriv     legion.Privilege
	kprog         *kernelProg
	// leafIDs and leafExt are the leaf loops' evaluator ids and extents
	// (outermost first); kpool recycles per-worker kernel scratch across
	// every task of the plan.
	leafIDs, leafExt []int
	kpool            *sync.Pool

	// distOnly marks tensors whose anchor cut fixes only the distributed
	// variables: their requirement rects are identical across the launches
	// of a sequential pipeline and are cached by the materializer.
	distOnly    []bool
	anyDistOnly bool
}

// tensorPlan is the per-tensor slice of the launch plan: which requirement
// it produces and how its accesses map evaluator intervals to rect bounds.
type tensorPlan struct {
	region *legion.Region
	shape  []int
	priv   legion.Privilege
	// accesses holds, per access of this tensor in the statement, the
	// evaluator variable id indexing each tensor dimension. A nil entry is a
	// scalar access covering the full region.
	accesses [][]int
	cutIdx   int // index into cuts: the anchor environment of this tensor
}

// deriveBounds writes tp's requirement bounds at one point into lo/hi: the
// union over the tensor's accesses of the access variables' intervals,
// clamped to the tensor's shape. A scalar access (or a tensor with no
// accesses) covers the full region.
func (tp *tensorPlan) deriveBounds(ivs []schedule.Interval, lo, hi []int) {
	first := true
	fullRect := len(tp.accesses) == 0
	for _, dims := range tp.accesses {
		if dims == nil {
			fullRect = true // scalar access: full region
			break
		}
		if first {
			for d, id := range dims {
				lo[d], hi[d] = ivs[id].Lo, ivs[id].Hi
			}
			first = false
			continue
		}
		for d, id := range dims {
			if ivs[id].Lo < lo[d] {
				lo[d] = ivs[id].Lo
			}
			if ivs[id].Hi > hi[d] {
				hi[d] = ivs[id].Hi
			}
		}
	}
	if fullRect {
		for d, s := range tp.shape {
			lo[d], hi[d] = 0, s
		}
		return
	}
	for d, s := range tp.shape {
		if lo[d] < 0 {
			lo[d] = 0
		}
		if hi[d] > s {
			hi[d] = s
		}
	}
}

// pointFlops computes the cost-model flops of one point from the full
// environment's intervals: the iteration-space volume times the statement's
// per-point flops (zero when any original variable's interval is empty —
// the point lies entirely on a ragged tail).
func (c *compiler) pointFlops(fullIvs []schedule.Interval) float64 {
	points := 1.0
	for _, id := range c.ev.OrigIDs() {
		w := fullIvs[id].Hi - fullIvs[id].Lo
		if w <= 0 {
			return 0
		}
		points *= float64(w)
	}
	return points * c.flopsPerPoint
}

// cutGroup is one distinct communicate-anchor cut: a prefix of the loop
// order whose environment variables are fixed during bounds evaluation.
// Groups are sorted by ascending cut so each adds variables to the previous
// group's fixed set (addIDs); the last group fixes the full environment and
// also drives the cost model.
type cutGroup struct {
	cut    int
	addIDs []int
}

func (c *compiler) lower() (*legion.Program, error) {
	prog := &legion.Program{
		Name:    c.in.Stmt.String(),
		Machine: c.in.Machine,
	}
	c.regions = map[string]*legion.Region{}
	for _, name := range c.in.Stmt.TensorNames() {
		t := c.in.Tensors[name]
		r := legion.NewRegion(name, t.Shape, t.Placement)
		c.regions[name] = r
		prog.Regions = append(prog.Regions, r)
	}

	// Control structure: [dist prefix][sequential launch vars][leaf vars].
	nd := len(c.dist)
	splitDepth := nd
	lhs := c.in.Stmt.LHS.Tensor
	for _, tn := range c.in.Stmt.TensorNames() {
		if tn == lhs {
			continue // write aggregation does not force launch splitting
		}
		anchor := c.sched.CommAnchor(tn)
		if anchor == "" {
			continue // default: aggregate at the task level
		}
		if p := c.posOf(anchor); p+1 > splitDepth {
			splitDepth = p + 1
		}
	}
	c.seqVars = c.order[nd:splitDepth]
	c.leaf = c.order[splitDepth:]
	c.buildPlan(splitDepth)

	// Launch domain over the distributed variables.
	var domain machine.Grid
	if nd == 0 {
		domain = machine.NewGrid(1)
	} else {
		dims := make([]int, nd)
		for i, v := range c.dist {
			dims[i] = c.extents[v]
		}
		domain = machine.NewGrid(dims...)
	}

	prog.Launches = c.materializeLaunches(domain, c.seqAssignments())
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return prog, nil
}

// seqAssignments lists one assignment of the sequential control variables
// per launch, in lexicographic order; a plan without them has one launch
// and a nil assignment.
func (c *compiler) seqAssignments() []map[string]int {
	if len(c.seqVars) == 0 {
		return []map[string]int{nil}
	}
	seqDims := make([]int, len(c.seqVars))
	for i, v := range c.seqVars {
		seqDims[i] = c.extents[v]
	}
	var seqs []map[string]int
	tensor.FullRect(seqDims).Points(func(p []int) {
		seq := map[string]int{}
		for i, v := range c.seqVars {
			seq[v] = p[i]
		}
		seqs = append(seqs, seq)
	})
	return seqs
}

func (c *compiler) posOf(name string) int {
	for i, v := range c.order {
		if v == name {
			return i
		}
	}
	return -1
}

// buildPlan hoists everything point-independent out of the per-point loop:
// it compiles the bounds evaluator, resolves environment variable ids, maps
// every tensor's accesses to evaluator ids, and groups tensors by their
// communicate-anchor cut so each distinct cut is evaluated once per point.
func (c *compiler) buildPlan(splitDepth int) {
	stmt := c.in.Stmt
	c.ev = c.sched.CompileEvaluator(c.extents)
	nd := len(c.dist)
	c.distIDs = make([]int, nd)
	for i, v := range c.dist {
		c.distIDs[i] = c.ev.VarID(v)
	}
	c.seqIDs = make([]int, len(c.seqVars))
	for i, v := range c.seqVars {
		c.seqIDs[i] = c.ev.VarID(v)
	}

	c.writePriv = legion.WriteDiscard
	if len(stmt.ReductionVars()) > 0 || stmt.Increment {
		c.writePriv = legion.ReduceSum
	}
	c.flopsPerPoint = float64(stmt.FlopsPerPoint())

	// effCut clamps a tensor's anchor cut to [nd, splitDepth]: positions
	// beyond splitDepth carry no environment variables, so all such cuts fix
	// the same set.
	effCut := func(tn string) int {
		cut := nd // default: aggregate at the task level
		if anchor := c.sched.CommAnchor(tn); anchor != "" {
			if p := c.posOf(anchor); p+1 > cut {
				cut = p + 1
			}
		}
		if cut > splitDepth {
			cut = splitDepth
		}
		return cut
	}

	// Distinct cuts, ascending; the full environment (cut == splitDepth) is
	// always present for the cost model.
	names := stmt.TensorNames()
	cutSet := map[int]bool{splitDepth: true}
	for _, tn := range names {
		cutSet[effCut(tn)] = true
	}
	cutIdx := map[int]int{}
	for cut := nd; cut <= splitDepth; cut++ {
		if cutSet[cut] {
			cutIdx[cut] = len(c.cuts)
			c.cuts = append(c.cuts, cutGroup{cut: cut})
		}
	}
	// addIDs: environment ids (dist + seq) newly fixed by each group
	// relative to the previous one. Distributed ids are fixed by every cut.
	prev := 0
	for i := range c.cuts {
		var add []int
		if i == 0 {
			add = append(add, c.distIDs...)
			prev = nd
		}
		for ; prev < c.cuts[i].cut; prev++ {
			add = append(add, c.seqIDs[prev-nd])
		}
		c.cuts[i].addIDs = add
	}

	allAccesses := append([]*ir.Access{stmt.LHS}, stmt.RHS.Accesses(nil)...)
	for ti, tn := range names {
		t := c.in.Tensors[tn]
		tp := tensorPlan{
			region: c.regions[tn],
			shape:  t.Shape,
			priv:   legion.ReadOnly,
			cutIdx: cutIdx[effCut(tn)],
		}
		if ti == 0 {
			tp.priv = c.writePriv
		}
		for _, a := range allAccesses {
			if a.Tensor != tn {
				continue
			}
			if len(a.Indices) == 0 {
				tp.accesses = append(tp.accesses, nil)
				continue
			}
			dims := make([]int, len(a.Indices))
			for d, v := range a.Indices {
				dims[d] = c.ev.VarID(v.Name)
			}
			tp.accesses = append(tp.accesses, dims)
		}
		c.tensors = append(c.tensors, tp)
		c.regionList = append(c.regionList, tp.region)
		c.privs = append(c.privs, tp.priv)
	}
	c.distOnly = make([]bool, len(c.tensors))
	for ti := range c.tensors {
		if c.cuts[c.tensors[ti].cutIdx].cut == nd {
			c.distOnly[ti] = true
			c.anyDistOnly = true
		}
	}

	c.kprog = compileKernelProg(stmt, c.ev, c.writePriv == legion.ReduceSum)
	c.leafIDs = make([]int, len(c.leaf))
	c.leafExt = make([]int, len(c.leaf))
	for i, name := range c.leaf {
		c.leafIDs[i] = c.ev.VarID(name)
		c.leafExt[i] = c.extents[name]
	}
	c.kprog.planBlock(c.leafIDs, c.leafExt)
	obs.FromContext(c.ctx).SetAttr("block_vars", strconv.Itoa(c.kprog.blockVars))
	nv, nOrig := c.ev.NumVars(), len(c.ev.OrigIDs())
	nOps, nAcc, nLeaf, rowLen := len(c.kprog.ops), len(c.kprog.accesses), len(c.leaf), c.kprog.rowLen
	c.kpool = &sync.Pool{New: func() any {
		return newKernelScratch(nv, nOrig, nOps, nAcc, nLeaf, rowLen)
	}}
}

// launchName renders "kernel[ko=2,…]" for diagnostics and traces.
func launchName(stmt *ir.Assignment, seqVars []string, seq map[string]int) string {
	if len(seqVars) == 0 {
		return stmt.LHS.Tensor
	}
	parts := make([]string, len(seqVars))
	for i, v := range seqVars {
		parts[i] = fmt.Sprintf("%s=%d", v, seq[v])
	}
	return stmt.LHS.Tensor + "[" + strings.Join(parts, ",") + "]"
}

// maxMaterializeWorkers bounds the worker pool: launch materialization is
// memory-bound map work that stops scaling early, and compiles may already
// run concurrently across sessions.
const maxMaterializeWorkers = 8

// materializeWorkers picks the pool size for an n-point domain; small
// domains are not worth the goroutine handoff.
func materializeWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > maxMaterializeWorkers {
		w = maxMaterializeWorkers
	}
	if per := (n + 63) / 64; w > per {
		w = per
	}
	if w < 1 {
		w = 1
	}
	return w
}

// materializeLaunches materializes every launch of the plan. The work is cut
// into units — a whole launch of a multi-launch plan (a sequential
// pipeline), or one of materializeWorkers(n) contiguous point ranges of a
// single launch — which a bounded pool takes from an atomic counter. Each
// worker owns one pooled materializer whose scratch (evaluation buffers, the
// rect tables, the dist-only cache) persists across its units. Every point
// is written to a fixed place in its launch's slab, and units cover disjoint
// points, so nothing is merged and the result is the same under any pool
// size or schedule. Requirement ids come out worker-local until numberRects.
func (c *compiler) materializeLaunches(domain machine.Grid, seqs []map[string]int) []*legion.Launch {
	n := domain.Size()
	launches := make([]*legion.Launch, len(seqs))
	units, chunk := len(seqs), n
	if len(seqs) == 1 {
		units = materializeWorkers(n)
		chunk = (n + units - 1) / units
		launches[0] = c.newLaunch(domain, seqs[0])
	}
	slabs := make([][]int32, units) // unit u's requirement ids
	nw := min(runtime.GOMAXPROCS(0), maxMaterializeWorkers, units)
	mats := make([]*materializer, nw)
	owner := make([]int, units) // the worker that built unit u
	var next atomic.Int64
	work := func(w int) {
		m := c.newMaterializer(domain.Rank(), len(seqs) > 1)
		mats[w] = m
		for {
			u := int(next.Add(1)) - 1
			if u >= units || c.ctx.Err() != nil {
				return
			}
			owner[u] = w
			if len(seqs) > 1 {
				l := c.newLaunch(domain, seqs[u])
				launches[u], slabs[u] = l, l.IDs
				m.build(c, l, seqs[u], 0, n)
				continue
			}
			lo, hi := u*chunk, min((u+1)*chunk, n)
			slabs[u] = launches[0].IDs[lo*len(c.tensors) : hi*len(c.tensors)]
			m.build(c, launches[0], seqs[0], lo, hi)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if c.ctx.Err() == nil {
		c.numberRects(mats, owner, slabs)
	}
	for _, m := range mats {
		matPool.Put(m)
	}
	return launches
}

// numberRects gives every region its rect table and rewrites every
// requirement id, in place, from the worker's table to the region's. Ids are
// numbered per region in first-appearance order — units in order, then
// points, then tensors — which is the order a single worker numbers them in,
// so its local ids are kept as they are. Otherwise each worker-local rect is
// interned once into the region's table, the first time it appears; the
// pass over the ids is an array lookup each.
func (c *compiler) numberRects(mats []*materializer, owner []int, slabs [][]int32) {
	if len(mats) == 1 {
		for ti, tp := range c.tensors {
			tp.region.Rects = mats[0].tables[ti].rects()
		}
		return
	}
	nt := len(c.tensors)
	merge := grow(mats[0].merge, nt)
	mats[0].merge = merge
	for ti, tp := range c.tensors {
		merge[ti].reset(len(tp.shape))
		for _, m := range mats {
			m.global[ti] = resize(m.global[ti], int(m.tables[ti].n))
		}
	}
	for u, ids := range slabs {
		m := mats[owner[u]]
		for i, id := range ids {
			ti := i % nt
			g := m.global[ti][id] - 1
			if g < 0 {
				g = merge[ti].intern(m.tables[ti].at(id))
				m.global[ti][id] = g + 1
			}
			ids[i] = g
		}
	}
	for ti, tp := range c.tensors {
		tp.region.Rects = merge[ti].rects()
	}
}

// newLaunch allocates one launch with its requirement-id slab and cost
// table, for build to fill: the point with linearized index lin has its
// requirement ids at IDs[lin*nt : lin*nt+nt], one per tensor, and its costs
// at Cost[lin].
func (c *compiler) newLaunch(domain machine.Grid, seq map[string]int) *legion.Launch {
	n, nt := domain.Size(), len(c.tensors)
	return &legion.Launch{
		Name:    launchName(c.in.Stmt, c.seqVars, seq),
		Domain:  domain,
		Regions: c.regionList,
		Privs:   c.privs,
		IDs:     make([]int32, n*nt),
		Cost:    make([]legion.Cost, n),
		Run:     c.realKernel(seq),
	}
}

// materializer owns the scratch of one materialization worker. Its rect
// tables persist across the worker's units (rects repeat across the launches
// of a pipeline — e.g. the output tensor's requirement does not depend on
// the sequential loop at all). Nothing here is shared between workers, and
// nothing here outlives the compile in its program: materializers are pooled
// across compiles (matPool), and numberRects copies the bounds a region
// keeps out of the tables.
type materializer struct {
	point          []int
	fixed          []bool
	vals           []int
	ivs            [][]schedule.Interval
	rectLo, rectHi [][]int

	tables []rectTable // per tensor, its rects by worker-local id
	// global maps, per tensor, each worker-local id to 1 + its id in the
	// region's table (0 until numberRects meets it); merge holds the
	// region tables numberRects builds when several workers materialized,
	// and is used on the first worker's materializer only.
	global [][]int32
	merge  []rectTable

	// distCache holds, at point*nt + tensor, the worker-local rect id of
	// every tensor whose anchor cut fixes only distributed variables: that
	// requirement is independent of the launch's sequential assignment, so
	// the worker's later launches reuse its first launch's analysis (and skip
	// evaluating the dist-only cut group altogether). Only multi-launch plans
	// set cacheDist, and their units are whole launches: a single launch
	// would pay for a cache it never reads back. distFilled marks that a
	// launch filled it.
	cacheDist, distFilled bool
	distCache             []int32
}

var matPool = sync.Pool{New: func() any { return new(materializer) }}

// newMaterializer takes a materializer from the pool and sizes its scratch
// for this compile.
func (c *compiler) newMaterializer(rank int, multiLaunch bool) *materializer {
	nv, nt := c.ev.NumVars(), len(c.tensors)
	m := matPool.Get().(*materializer)
	m.cacheDist, m.distFilled = multiLaunch && c.anyDistOnly, false
	m.point = resize(m.point, rank)
	m.fixed = resize(m.fixed, nv)
	m.vals = resize(m.vals, nv)
	m.ivs = grow(m.ivs, len(c.cuts))
	for i := range m.ivs {
		m.ivs[i] = resize(m.ivs[i], nv)
	}
	m.rectLo, m.rectHi = grow(m.rectLo, nt), grow(m.rectHi, nt)
	m.tables, m.global = grow(m.tables, nt), grow(m.global, nt)
	for ti, tp := range c.tensors {
		r := len(tp.shape)
		m.rectLo[ti], m.rectHi[ti] = resize(m.rectLo[ti], r), resize(m.rectHi[ti], r)
		m.tables[ti].reset(r)
	}
	return m
}

// resize returns s with length n and zeroed contents, allocating only when
// its capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// grow returns s with length n, keeping its contents — and, up to its
// capacity, the elements an earlier use left past its length.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// build runs the bounds analysis of points [start, end) of launch l. For
// each point it evaluates every distinct anchor cut, derives and interns the
// per-tensor requirement rects, and writes their worker-local ids to
// l.IDs[lin*nt : lin*nt+nt] and the cost-model inputs to l.Cost[lin], where
// lin is the point's linearized index. It is the only place the compiler
// analyzes a launch point.
func (m *materializer) build(c *compiler, l *legion.Launch, seq map[string]int, start, end int) {
	ev, domain, ids := c.ev, l.Domain, l.IDs
	full := len(c.cuts) - 1
	nt := len(c.tensors)
	for i, v := range c.seqVars {
		m.vals[c.seqIDs[i]] = seq[v]
	}
	reuse := m.distFilled // a previous launch filled the cache
	if m.cacheDist && !reuse {
		m.distCache = resize(m.distCache, domain.Size()*nt)
		m.distFilled = true
	}
	// The dist-only cut group (if any) is the first one, and its intervals
	// are consumed only by dist-only tensors, which a filled cache serves.
	skipDist := reuse && c.cuts[0].cut == len(c.dist) && full > 0

	for i := start; i < end; i++ {
		if (i-start)%cancelCheckPoints == cancelCheckPoints-1 && c.ctx.Err() != nil {
			return
		}
		domain.DelinearizeInto(i, m.point)
		for d, id := range c.distIDs {
			m.vals[id] = m.point[d]
		}
		// Evaluate cut groups in ascending order: each fixes the variables
		// it adds over the previous group.
		for g := range c.cuts {
			for _, id := range c.cuts[g].addIDs {
				m.fixed[id] = true
			}
			if g == 0 && skipDist {
				continue
			}
			ev.Eval(m.fixed, m.vals, m.ivs[g])
		}
		for g := range c.cuts {
			for _, id := range c.cuts[g].addIDs {
				m.fixed[id] = false
			}
		}

		pids := ids[i*nt : i*nt+nt]
		memBytes := 0.0
		for ti, tp := range c.tensors {
			var id int32
			switch {
			case reuse && c.distOnly[ti]:
				id = m.distCache[i*nt+ti]
			case m.cacheDist && c.distOnly[ti]:
				id = m.intern(c, ti)
				m.distCache[i*nt+ti] = id
			default:
				id = m.intern(c, ti)
			}
			pids[ti] = id
			lo, hi := m.tables[ti].at(id)
			memBytes += float64(tp.region.Bytes(tensor.Rect{Lo: lo, Hi: hi}))
		}
		// Cost-model inputs from the full environment.
		l.Cost[i] = legion.Cost{Flops: c.pointFlops(m.ivs[full]), MemBytes: memBytes}
	}
}

// intern derives tensor ti's requirement bounds from the current point's
// intervals — the union over its accesses, clamped to its shape — and
// returns their id in the worker's table of the tensor's rects, numbering
// them when they are new.
func (m *materializer) intern(c *compiler, ti int) int32 {
	tp := &c.tensors[ti]
	lo, hi := m.rectLo[ti], m.rectHi[ti]
	tp.deriveBounds(m.ivs[tp.cutIdx], lo, hi)
	return m.tables[ti].intern(lo, hi)
}
