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
//     (kernelprog.go) with a tree-walking fallback (Input.TreeKernel).
//
// Compiled programs are immutable: every launch's per-point region
// requirements are materialized eagerly at compile time into a shared slab,
// so a plan can be cached (keyed by PlanKey, a content hash over statement,
// shapes, formats, schedule text, and machine) and simulated concurrently
// by many goroutines, and repeated executions skip the bounds analysis
// entirely. Materialization is deterministic under every parallelization
// strategy: multi-launch plans are built launch-parallel over a bounded
// worker pool whose scratch (including the rect intern table and the
// requirements of tensors anchored at the task level) persists across
// launches, while single-launch plans split their domain across
// point-chunked workers merged in chunk order.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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
	// TreeKernel selects the tree-walking Real-mode leaf kernel instead of
	// the compiled kernel program. The two are bit-identical (asserted by
	// the golden tests); the tree walk exists as a debuggable fallback and
	// as the reference the compiled program is validated against.
	TreeKernel bool
}

// Compile lowers the scheduled statement to a Legion program.
func Compile(in Input) (*legion.Program, error) {
	return CompileContext(context.Background(), in)
}

// cancelCheckPoints is how many domain points a materialization worker
// analyzes between cancellation checkpoints.
const cancelCheckPoints = 1024

// CompileContext is Compile under a context: the launch-materialization
// workers poll ctx every cancelCheckPoints domain points and the whole
// compile aborts with ctx's error, so a canceled request stops burning the
// pool promptly even mid-launch. The context's current span (the caller's
// compile span) gains a block_vars attribute: how many leaf variables the
// compiled kernel's block plan spans, 0 to 3 (absent under TreeKernel).
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
// accesses) covers the full region. Shared by every materialization
// strategy so the two cannot drift.
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

	// One launch per assignment of the sequential control variables, in
	// lexicographic order.
	seqDims := make([]int, len(c.seqVars))
	for i, v := range c.seqVars {
		seqDims[i] = c.extents[v]
	}
	var seqs []map[string]int
	if len(seqDims) == 0 {
		seqs = []map[string]int{nil}
	} else {
		tensor.FullRect(seqDims).Points(func(p []int) {
			seq := map[string]int{}
			for i, v := range c.seqVars {
				seq[v] = p[i]
			}
			seqs = append(seqs, seq)
		})
	}
	prog.Launches = c.materializeLaunches(domain, seqs)
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return prog, nil
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
	}
	c.distOnly = make([]bool, len(c.tensors))
	for ti := range c.tensors {
		if c.cuts[c.tensors[ti].cutIdx].cut == nd {
			c.distOnly[ti] = true
			c.anyDistOnly = true
		}
	}

	if !c.in.TreeKernel {
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

// pointInfo is one deduplicated task description: an offset into the
// launch's shared requirement slab and the analytic cost-model inputs.
type pointInfo struct {
	off      int
	flops    float64
	memBytes float64
}

// pointWorker holds one materialization goroutine's scratch state: reusable
// evaluator buffers, rect bound buffers, a key buffer, and worker-local
// interning tables. Nothing here escapes to another worker.
type pointWorker struct {
	start, end int

	point          []int
	fixed          []bool
	vals           []int
	ivs            [][]schedule.Interval
	rectLo, rectHi [][]int
	keyBuf         []byte

	rects map[string]tensor.Rect // interned rects, keyed by packed bounds
	seen  map[string]int32       // packed point key -> local info index
	infos []workerInfo
}

// workerInfo is one distinct point description found by a worker, prior to
// the cross-worker merge.
type workerInfo struct {
	key      string
	rects    []tensor.Rect // one per tensor, interned
	flops    float64
	memBytes float64
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

// materializeLaunches materializes every launch of the plan. Launches are
// independent, so multi-launch plans (chunked SUMMA-style pipelines) are
// materialized launch-parallel over a bounded pool in which each worker owns
// one materializer whose scratch — evaluation buffers, the rect intern
// table, the dedup table — persists across the launches it processes:
// worker setup is paid per pool slot, not per launch. Each launch is built
// entirely by one worker, so its requirement slab needs no cross-worker
// merge and the result is deterministic regardless of pool size or
// scheduling. Single-launch plans keep the point-chunked pool (the launch
// itself is the only unit of independence left).
func (c *compiler) materializeLaunches(domain machine.Grid, seqs []map[string]int) []*legion.Launch {
	launches := make([]*legion.Launch, len(seqs))
	if len(seqs) == 1 && materializeWorkers(domain.Size()) > 1 {
		launches[0] = c.buildLaunchChunked(domain, seqs[0])
		return launches
	}
	nw := runtime.GOMAXPROCS(0)
	if nw > maxMaterializeWorkers {
		nw = maxMaterializeWorkers
	}
	if nw > len(seqs) {
		nw = len(seqs)
	}
	if nw <= 1 {
		m := c.newMaterializer(domain.Rank(), len(seqs) > 1)
		for i, seq := range seqs {
			if c.ctx.Err() != nil {
				return launches
			}
			launches[i] = m.buildLaunch(c, domain, seq)
		}
		return launches
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := c.newMaterializer(domain.Rank(), true)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seqs) || c.ctx.Err() != nil {
					return
				}
				launches[i] = m.buildLaunch(c, domain, seqs[i])
			}
		}()
	}
	wg.Wait()
	return launches
}

// rectEntry is one interned requirement rect: the canonical Rect value, its
// comparable key, a dense id used in point signatures, and its payload size.
// The key is built once here so the runtime's per-requirement indexes never
// rebuild it during execution.
type rectEntry struct {
	rect  tensor.Rect
	key   tensor.RectKey
	id    int32
	bytes int64
}

// materializer owns the scratch one worker uses to materialize whole
// launches serially. The rect intern table persists across launches (rects
// repeat across the launches of a pipeline — e.g. the output tensor's
// requirement does not depend on the sequential loop at all); the dedup
// table is cleared per launch. Nothing here is shared between workers.
type materializer struct {
	point          []int
	fixed          []bool
	vals           []int
	ivs            [][]schedule.Interval
	rectLo, rectHi [][]int
	keyBuf         []byte
	sigBuf         []byte
	ents           []*rectEntry

	rects map[string]*rectEntry // packed bounds -> interned rect, plan scope
	seen  map[string]int32      // point signature -> info index, launch scope

	// distCache memoizes, per domain point, the interned rects of tensors
	// whose anchor cut fixes only distributed variables: their requirement
	// is independent of the launch's sequential assignment, so later
	// launches reuse the first launch's analysis (and skip evaluating the
	// dist-only cut group altogether). Only populated for multi-launch
	// plans (cacheDist): a single launch would pay for a cache it never
	// reads back.
	cacheDist bool
	distCache [][]*rectEntry
}

func (c *compiler) newMaterializer(rank int, multiLaunch bool) *materializer {
	nv := c.ev.NumVars()
	m := &materializer{
		cacheDist: multiLaunch && c.anyDistOnly,
		point:     make([]int, rank),
		fixed:     make([]bool, nv),
		vals:      make([]int, nv),
		ivs:       make([][]schedule.Interval, len(c.cuts)),
		ents:      make([]*rectEntry, len(c.tensors)),
		rects:     map[string]*rectEntry{},
		seen:      map[string]int32{},
	}
	for i := range m.ivs {
		m.ivs[i] = make([]schedule.Interval, nv)
	}
	for _, tp := range c.tensors {
		r := len(tp.shape)
		m.rectLo = append(m.rectLo, make([]int, r))
		m.rectHi = append(m.rectHi, make([]int, r))
	}
	return m
}

// buildLaunch materializes one launch start to finish: for each domain point
// it evaluates every distinct anchor cut, derives and interns the per-tensor
// requirement rects, and appends each distinct point description directly to
// the launch's shared requirement slab. Point signatures are tuples of
// interned rect ids (plus the cost-model flops), so the dedup key is a few
// words rather than the packed bounds of every tensor.
func (m *materializer) buildLaunch(c *compiler, domain machine.Grid, seq map[string]int) *legion.Launch {
	ev := c.ev
	full := len(c.cuts) - 1
	n := domain.Size()
	nt := len(c.tensors)
	for i, v := range c.seqVars {
		m.vals[c.seqIDs[i]] = seq[v]
	}
	idx := make([]int32, n)
	slab := make([]legion.Req, 0, n*nt)
	infos := make([]pointInfo, 0, n)
	clear(m.seen)
	// The dist-only cut group (if any) is the first one, and its intervals
	// are consumed only by dist-only tensors: once every point's entry is
	// cached, its evaluation can be skipped.
	distGroup := len(c.cuts) > 0 && c.cuts[0].cut == len(c.dist) && full > 0
	if m.distCache == nil && m.cacheDist {
		m.distCache = make([][]*rectEntry, n)
	}

	for i := 0; i < n; i++ {
		if i%cancelCheckPoints == cancelCheckPoints-1 && c.ctx.Err() != nil {
			return nil
		}
		domain.DelinearizeInto(i, m.point)
		for d, id := range c.distIDs {
			m.vals[id] = m.point[d]
		}
		var cached []*rectEntry
		if m.distCache != nil {
			cached = m.distCache[i]
		}
		// Evaluate cut groups in ascending order: each fixes the variables
		// it adds over the previous group.
		for g := range c.cuts {
			for _, id := range c.cuts[g].addIDs {
				m.fixed[id] = true
			}
			if g == 0 && distGroup && cached != nil {
				continue // every consumer of this group is cached
			}
			ev.Eval(m.fixed, m.vals, m.ivs[g])
		}
		for g := range c.cuts {
			for _, id := range c.cuts[g].addIDs {
				m.fixed[id] = false
			}
		}

		// Requirement bounds per tensor: union over the tensor's accesses,
		// clamped to its shape, then interned by packed bounds.
		m.sigBuf = m.sigBuf[:0]
		for ti := range c.tensors {
			tp := &c.tensors[ti]
			if cached != nil && cached[ti] != nil {
				e := cached[ti]
				m.ents[ti] = e
				m.sigBuf = binary.LittleEndian.AppendUint32(m.sigBuf, uint32(e.id))
				continue
			}
			lo, hi := m.rectLo[ti], m.rectHi[ti]
			tp.deriveBounds(m.ivs[tp.cutIdx], lo, hi)
			m.keyBuf = m.keyBuf[:0]
			m.keyBuf = binary.LittleEndian.AppendUint64(m.keyBuf, uint64(ti))
			for d := range lo {
				m.keyBuf = binary.LittleEndian.AppendUint64(m.keyBuf, uint64(lo[d]))
				m.keyBuf = binary.LittleEndian.AppendUint64(m.keyBuf, uint64(hi[d]))
			}
			e, ok := m.rects[string(m.keyBuf)]
			if !ok {
				r := tensor.NewRect(lo, hi)
				e = &rectEntry{rect: r, key: r.Key(), id: int32(len(m.rects)), bytes: c.tensors[ti].region.Bytes(r)}
				m.rects[string(m.keyBuf)] = e
			}
			m.ents[ti] = e
			m.sigBuf = binary.LittleEndian.AppendUint32(m.sigBuf, uint32(e.id))
		}

		if m.distCache != nil && cached == nil {
			ent := make([]*rectEntry, nt)
			for ti := range c.tensors {
				if c.distOnly[ti] {
					ent[ti] = m.ents[ti]
				}
			}
			m.distCache[i] = ent
		}

		// Cost-model inputs from the full environment.
		flops := c.pointFlops(m.ivs[full])
		m.sigBuf = binary.LittleEndian.AppendUint64(m.sigBuf, math.Float64bits(flops))

		li, ok := m.seen[string(m.sigBuf)]
		if !ok {
			off := len(slab)
			memBytes := 0.0
			for ti, e := range m.ents {
				slab = append(slab, legion.Req{
					Region: c.tensors[ti].region,
					Rect:   e.rect,
					Priv:   c.tensors[ti].priv,
					Key:    e.key,
				})
				memBytes += float64(e.bytes)
			}
			li = int32(len(infos))
			infos = append(infos, pointInfo{off: off, flops: flops, memBytes: memBytes})
			m.seen[string(m.sigBuf)] = li
		}
		idx[i] = li
	}

	info := func(point []int) *pointInfo { return &infos[idx[domain.Linearize(point)]] }
	return &legion.Launch{
		Name:   launchName(c.in.Stmt, c.seqVars, seq),
		Domain: domain,
		Reqs: func(point []int) []legion.Req {
			pi := info(point)
			return slab[pi.off : pi.off+nt : pi.off+nt]
		},
		Kernel: legion.Kernel{
			Flops:    func(point []int) float64 { return info(point).flops },
			MemBytes: func(point []int) float64 { return info(point).memBytes },
			Run:      c.realKernel(seq),
		},
	}
}

// buildLaunchChunked lowers one index launch by splitting its domain across
// a point-chunked worker pool; it is the materialization strategy for
// single-launch plans, whose only independence is between points. The
// bounds analysis of every domain point is materialized eagerly into the
// launch, for two reasons: the resulting program is immutable — safe for
// concurrent simulation, a prerequisite of plan caching — and repeated
// executions of a cached plan skip the analysis entirely (it is the
// dominant cost of a cold compile+execute).
//
// Materialization runs the compiled evaluator once per (point, anchor cut)
// over the pool; identical points (common under replication) are interned so
// the launch stores each distinct requirement set once, in one shared slab.
// Workers are merged in chunk order, so the slab ordering is identical to
// the serial path's first-appearance order.
func (c *compiler) buildLaunchChunked(domain machine.Grid, seq map[string]int) *legion.Launch {
	n := domain.Size()
	nt := len(c.tensors)
	seqVals := make([]int, len(c.seqIDs))
	for i, v := range c.seqVars {
		seqVals[i] = seq[v]
	}

	idx := make([]int32, n) // point -> worker-local, then global, info index
	nw := materializeWorkers(n)
	workers := make([]*pointWorker, nw)
	chunk := (n + nw - 1) / nw
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		pw := c.newPointWorker(start, end, domain.Rank(), seqVals)
		workers[w] = pw
		if nw == 1 {
			c.materializeChunk(pw, domain, idx)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.materializeChunk(pw, domain, idx)
		}()
	}
	wg.Wait()
	if c.ctx.Err() != nil {
		return nil // workers bailed early; the compile is aborting
	}

	// Merge worker-local infos into the launch's shared requirement slab,
	// deduplicating across workers. Workers are merged in chunk order so the
	// result is deterministic.
	var uniq int
	for _, pw := range workers {
		uniq += len(pw.infos)
	}
	slab := make([]legion.Req, 0, uniq*nt)
	infos := make([]pointInfo, 0, uniq)
	global := make(map[string]int32, uniq)
	for _, pw := range workers {
		trans := make([]int32, len(pw.infos))
		for li, wi := range pw.infos {
			gi, ok := global[wi.key]
			if !ok {
				gi = int32(len(infos))
				global[wi.key] = gi
				off := len(slab)
				for ti := range c.tensors {
					slab = append(slab, legion.Req{
						Region: c.tensors[ti].region,
						Rect:   wi.rects[ti],
						Priv:   c.tensors[ti].priv,
						Key:    wi.rects[ti].Key(),
					})
				}
				infos = append(infos, pointInfo{off: off, flops: wi.flops, memBytes: wi.memBytes})
			}
			trans[li] = gi
		}
		for i := pw.start; i < pw.end; i++ {
			idx[i] = trans[idx[i]]
		}
	}

	info := func(point []int) *pointInfo { return &infos[idx[domain.Linearize(point)]] }
	return &legion.Launch{
		Name:   launchName(c.in.Stmt, c.seqVars, seq),
		Domain: domain,
		Reqs: func(point []int) []legion.Req {
			pi := info(point)
			return slab[pi.off : pi.off+nt : pi.off+nt]
		},
		Kernel: legion.Kernel{
			Flops:    func(point []int) float64 { return info(point).flops },
			MemBytes: func(point []int) float64 { return info(point).memBytes },
			Run:      c.realKernel(seq),
		},
	}
}

// newPointWorker allocates one worker's scratch, pre-binding the launch's
// sequential assignment (constant across the chunk).
func (c *compiler) newPointWorker(start, end, rank int, seqVals []int) *pointWorker {
	nv := c.ev.NumVars()
	pw := &pointWorker{
		start: start, end: end,
		point: make([]int, rank),
		fixed: make([]bool, nv),
		vals:  make([]int, nv),
		ivs:   make([][]schedule.Interval, len(c.cuts)),
		rects: map[string]tensor.Rect{},
		seen:  map[string]int32{},
	}
	for i := range pw.ivs {
		pw.ivs[i] = make([]schedule.Interval, nv)
	}
	for _, tp := range c.tensors {
		r := len(tp.shape)
		pw.rectLo = append(pw.rectLo, make([]int, r))
		pw.rectHi = append(pw.rectHi, make([]int, r))
	}
	for i, id := range c.seqIDs {
		pw.vals[id] = seqVals[i]
	}
	return pw
}

// materializeChunk analyzes the worker's contiguous range of domain points:
// for each point it evaluates every distinct anchor cut once, derives the
// per-tensor requirement rects and cost-model inputs, and interns the
// resulting description.
func (c *compiler) materializeChunk(pw *pointWorker, domain machine.Grid, idx []int32) {
	ev := c.ev
	full := len(c.cuts) - 1
	for i := pw.start; i < pw.end; i++ {
		if (i-pw.start)%cancelCheckPoints == cancelCheckPoints-1 && c.ctx.Err() != nil {
			return
		}
		domain.DelinearizeInto(i, pw.point)
		for d, id := range c.distIDs {
			pw.vals[id] = pw.point[d]
		}
		// Evaluate cut groups in ascending order: each fixes the variables
		// it adds over the previous group.
		for g := range c.cuts {
			for _, id := range c.cuts[g].addIDs {
				pw.fixed[id] = true
			}
			ev.Eval(pw.fixed, pw.vals, pw.ivs[g])
		}
		for g := range c.cuts {
			for _, id := range c.cuts[g].addIDs {
				pw.fixed[id] = false
			}
		}

		// Requirement bounds per tensor: union over the tensor's accesses,
		// clamped to its shape.
		pw.keyBuf = pw.keyBuf[:0]
		for ti := range c.tensors {
			lo, hi := pw.rectLo[ti], pw.rectHi[ti]
			c.tensors[ti].deriveBounds(pw.ivs[c.tensors[ti].cutIdx], lo, hi)
			for d := range lo {
				pw.keyBuf = binary.LittleEndian.AppendUint64(pw.keyBuf, uint64(lo[d]))
				pw.keyBuf = binary.LittleEndian.AppendUint64(pw.keyBuf, uint64(hi[d]))
			}
		}

		// Cost-model inputs from the full environment.
		flops := c.pointFlops(pw.ivs[full])
		pw.keyBuf = binary.LittleEndian.AppendUint64(pw.keyBuf, math.Float64bits(flops))

		li, ok := pw.seen[string(pw.keyBuf)]
		if !ok {
			wi := workerInfo{key: string(pw.keyBuf), flops: flops}
			pos := 0
			for ti := range c.tensors {
				// Each tensor's packed bounds are a substring of the point
				// key; reuse them to intern the rect itself.
				rkeyEnd := pos + 16*len(c.tensors[ti].shape)
				rk := wi.key[pos:rkeyEnd]
				pos = rkeyEnd
				r, ok := pw.rects[rk]
				if !ok {
					r = tensor.NewRect(pw.rectLo[ti], pw.rectHi[ti])
					pw.rects[rk] = r
				}
				wi.rects = append(wi.rects, r)
				wi.memBytes += float64(c.tensors[ti].region.Bytes(r))
			}
			li = int32(len(pw.infos))
			pw.seen[wi.key] = li
			pw.infos = append(pw.infos, wi)
		}
		idx[i] = li
	}
}
