package distal

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"distal/internal/core"
	"distal/internal/ir"
	"distal/internal/legion"
	"distal/internal/obs"
	"distal/internal/program"
	"distal/internal/request"
	"distal/internal/schedule"
)

// Session is the long-lived entry point of the compile/execute API: it owns
// a target machine, default simulation parameters, and an LRU cache of
// compiled plans. A service compiles a workload once and executes it many
// times; repeated Compile of the same (statement, shapes, formats,
// schedule) returns the cached plan, concurrent identical Compile calls
// share one compilation (singleflight), and a cached Plan is safe for
// concurrent Simulate and Bind.Run calls.
//
// Plans never hold data: a plan describes a task graph, not the values
// flowing through it. Real-mode execution binds data per call through
// Plan.Bind, so cached plans serve simulation and real execution alike.
type Session struct {
	machine *Machine
	params  Params

	mu       sync.Mutex
	capacity int
	lru      *list.List // of *entry keyed by plan key, front = most recent
	plans    map[string]*list.Element
	hits     int64
	misses   int64

	// Request memo: canonical request rendering -> the payload it compiled
	// to. An LRU bounded at memoCapacity whose entries also die with any
	// plan they resolve through (plan-cache eviction removes them via
	// byPlan). A memo hit skips statement parsing, tensor construction, and
	// schedule replay entirely.
	memoCapacity int
	memoLRU      *list.List // of *entry keyed by canonical request, front = most recent
	memo         map[string]*list.Element
	byPlan       map[string][]string // plan key -> canonical requests resolving through it

	// flights collapses concurrent identical compiles, keyed by canonical
	// request: the first caller compiles, later callers arriving before it
	// finishes wait and share the result (exactly one cache miss).
	flights map[string]*flight
}

// entry is one element of the plan cache (keyed by plan key) or of the
// request memo (keyed by canonical request; it resolves through the
// plan-cache entries data.keys names).
type entry struct {
	key  string
	data *planData
}

type flight struct {
	done chan struct{}
	data *planData
	err  error
}

// DefaultPlanCacheSize is the plan-cache capacity of new sessions.
const DefaultPlanCacheSize = 128

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithParams sets the session's default cost model: the one every plan
// compiled through this session simulates and runs under unless an
// execution overrides it with WithCostModel. The default is LassenCPU.
func WithParams(p Params) SessionOption {
	return func(s *Session) { s.params = p }
}

// WithPlanCacheSize sets the plan cache capacity; 0 disables caching (and
// the request memo with it).
func WithPlanCacheSize(n int) SessionOption {
	return func(s *Session) { s.capacity = n; s.memoCapacity = 4 * n }
}

// NewSession creates a session over the machine.
func NewSession(m *Machine, opts ...SessionOption) *Session {
	s := &Session{
		machine:      m,
		params:       LassenCPU(),
		capacity:     DefaultPlanCacheSize,
		memoCapacity: 4 * DefaultPlanCacheSize,
		lru:          list.New(),
		plans:        map[string]*list.Element{},
		memoLRU:      list.New(),
		memo:         map[string]*list.Element{},
		byPlan:       map[string][]string{},
		flights:      map[string]*flight{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Machine returns the session's target machine.
func (s *Session) Machine() *Machine { return s.machine }

// Params returns the session's default cost model.
func (s *Session) Params() Params { return s.params }

// CacheStats summarizes plan-cache effectiveness.
type CacheStats struct {
	// Hits counts Compile calls served without running the compiler (plan
	// cache, request memo, or a shared in-flight compile); a statement list
	// served whole counts one per stage, as compiling each stage would.
	Hits int64
	// Misses counts Compile calls that ran the compiler.
	Misses int64
	// Entries is the number of cached plans.
	Entries int
	// MemoEntries is the number of canonical requests memoized to the
	// plans they compiled to.
	MemoEntries int
}

// CacheStats returns a snapshot of the plan cache counters.
func (s *Session) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{Hits: s.hits, Misses: s.misses, Entries: s.lru.Len(), MemoEntries: s.memoLRU.Len()}
}

// lookup returns the cached plan for key, promoting it to most recent. A
// miss is counted (the caller is about to compile).
func (s *Session) lookup(key string) *planData {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return nil
	}
	el, ok := s.plans[key]
	if !ok {
		s.misses++
		return nil
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*entry).data
}

// store inserts a plan, evicting the least recently used beyond capacity,
// and returns the payload the cache holds for key: data, or the one a
// concurrent compile of the same key stored first, so that every handle of
// a key shares one payload and one tape. Memo entries pointing at an
// evicted plan are dropped with it: the memo is a view over the plan cache,
// never a second cache.
func (s *Session) store(key string, data *planData) *planData {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return data
	}
	if el, ok := s.plans[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*entry).data
	}
	s.plans[key] = s.lru.PushFront(&entry{key: key, data: data})
	for s.lru.Len() > s.capacity {
		last := s.lru.Back()
		s.lru.Remove(last)
		evicted := last.Value.(*entry).key
		delete(s.plans, evicted)
		for _, ck := range slices.Clone(s.byPlan[evicted]) {
			if mel, ok := s.memo[ck]; ok {
				s.dropMemo(mel)
			}
		}
		delete(s.byPlan, evicted)
	}
	return data
}

// memoize records that canonical request ck compiled to data, under the
// memo's own LRU bound, unless a plan it resolves through has already left
// the plan cache (an entry exists only while all of them are cached). A
// request memoized already keeps its entry. Caller must not hold s.mu.
func (s *Session) memoize(ck string, data *planData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 || s.memoCapacity <= 0 {
		return
	}
	if el, ok := s.memo[ck]; ok {
		s.memoLRU.MoveToFront(el)
		return
	}
	for _, k := range data.keys {
		if _, ok := s.plans[k]; !ok {
			return
		}
	}
	s.memo[ck] = s.memoLRU.PushFront(&entry{key: ck, data: data})
	for _, k := range data.keys {
		s.byPlan[k] = append(s.byPlan[k], ck)
	}
	for s.memoLRU.Len() > s.memoCapacity {
		s.dropMemo(s.memoLRU.Back())
	}
}

// dropMemo removes a memo entry and its byPlan back-references. Caller
// holds s.mu.
func (s *Session) dropMemo(el *list.Element) {
	me := s.memoLRU.Remove(el).(*entry)
	delete(s.memo, me.key)
	for _, k := range me.data.keys {
		cks := slices.DeleteFunc(s.byPlan[k], func(ck string) bool { return ck == me.key })
		if len(cks) == 0 {
			delete(s.byPlan, k)
		} else {
			s.byPlan[k] = cks
		}
	}
}

// resolve is the compile fast path: it resolves a canonical request through
// the memo in one critical section. On a hit it counts one plan-cache hit per
// plan the entry resolves through (a list's stages, as compiling each would),
// promotes the entry and those plans, and returns the payload; on a miss it
// returns nil and counts nothing — the leader counts the miss exactly once.
func (s *Session) resolve(ck string) *planData {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.memo[ck]
	if !ok {
		return nil
	}
	me := el.Value.(*entry)
	for _, k := range me.data.keys {
		pe, ok := s.plans[k]
		if !ok {
			// Unreachable while eviction drops entries through byPlan; an
			// entry that outlived a plan must not serve it.
			s.dropMemo(el)
			return nil
		}
		s.lru.MoveToFront(pe)
	}
	s.hits += int64(len(me.data.keys))
	s.memoLRU.MoveToFront(el)
	return me.data
}

// Define parses the statement and declares the named tensors against the
// session's machine, validating shapes: every tensor named in the
// expression must be provided. The resulting computation compiles through
// the session's plan cache.
func (s *Session) Define(expr string, tensors ...*Tensor) (*Computation, error) {
	stmt, err := ir.Parse(expr)
	if err != nil {
		return nil, err
	}
	byName := map[string]*Tensor{}
	for _, t := range tensors {
		byName[t.Name] = t
	}
	shapes := map[string][]int{}
	for _, name := range stmt.TensorNames() {
		t, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("distal: expression references tensor %s, which was not provided", name)
		}
		shapes[name] = t.Shape
	}
	if err := stmt.Validate(shapes); err != nil {
		return nil, err
	}
	return &Computation{
		Stmt:    stmt,
		Machine: s.machine,
		tensors: byName,
		sched:   schedule.New(stmt),
		sess:    s,
	}, nil
}

// MustDefine is Define but panics on error. It is public API for fluent
// programs with fixed statements; only tests call it here.
func (s *Session) MustDefine(expr string, tensors ...*Tensor) *Computation {
	c, err := s.Define(expr, tensors...)
	if err != nil {
		panic(err)
	}
	return c
}

// Request is one compile job in pure data form — everything a server, CLI,
// or stored workload needs to name a computation: the statement (Stmt),
// tensor shapes (Shapes), tensor formats as distribution notation text
// (Formats), and the schedule as scheduling-command text (Schedule; empty
// means AutoSchedule). A statement list names its statements in Stmts
// instead, each with its own formats and schedule. Both forms compile
// through Session.Compile. Requests are data-free; bind real data to the
// compiled plan through Plan.Bind.
type Request = request.Request

// Statement is one statement of a Request's statement list: the statement
// text, format annotations that may only name tensors of this statement
// (others default to the canonical tiling of their rank), and a schedule
// (empty auto-schedules the stage).
type Statement = program.Statement

// canonicalRequest renders a request deterministically and injectively:
// every field is length-framed and every list and map is preceded by its
// entry count, so no request can embed another's frame boundaries inside a
// field value and collide (maps are rendered sorted and in full — an entry
// compileSlow would reject must not canonicalize to the same string as
// a request without it). Statements render last, each with its own formats
// and schedule, so a list never collides with a single statement nor
// with its statements split, merged, or annotated differently. Given a fixed
// session machine the rendering fully determines the compile input, so it
// keys both the request memo and the singleflight table.
func canonicalRequest(req Request) string {
	var b strings.Builder
	frame := func(fields ...string) {
		for _, f := range fields {
			fmt.Fprintf(&b, "%d\x00%s", len(f), f)
		}
	}
	formats := func(m map[string]string) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		frame(strconv.Itoa(len(names)))
		for _, name := range names {
			frame(name, m[name])
		}
	}
	frame(req.Stmt)
	shapeNames := make([]string, 0, len(req.Shapes))
	for k := range req.Shapes {
		shapeNames = append(shapeNames, k)
	}
	sort.Strings(shapeNames)
	frame(strconv.Itoa(len(shapeNames)))
	for _, name := range shapeNames {
		frame(name, fmt.Sprint(req.Shapes[name]))
	}
	formats(req.Formats)
	frame(req.Schedule)
	frame(strconv.Itoa(len(req.Stmts)))
	for _, st := range req.Stmts {
		frame(st.Stmt)
		formats(st.Formats)
		frame(st.Schedule)
	}
	return b.String()
}

// Compile compiles a request into an immutable Plan through the plan cache:
// a single statement (Stmt, Formats, Schedule) into a one-stage plan that
// binds every tensor, a statement list (Stmts) into a DAG whose stages each
// compile as the statement they name. A list's Shapes declares its leaf
// inputs only; a Shapes entry for a computed tensor is KindParse.
//
// A request seen before resolves through the request memo without
// re-parsing the statement or replaying the schedule; concurrent identical
// requests compile once and share the result (singleflight). Cancellation
// of ctx aborts the compile at the materializer's next checkpoint and
// returns an error of KindCanceled; waiters whose own context is alive when
// the compiling leader is canceled retry instead of inheriting the
// leader's cancellation.
func (s *Session) Compile(ctx context.Context, req Request) (*Plan, error) {
	ctx, sp := obs.Start(ctx, "compile")
	defer sp.End()
	plan, err := s.compileFlight(ctx, sp, req)
	if plan != nil {
		sp.SetAttr("stages", strconv.Itoa(plan.Stages()))
	}
	return plan, err
}

// CompileProgram is Compile.
//
// Deprecated: kept only for benchmark/http.go; ROADMAP item 4's first PR
// deletes it.
func (s *Session) CompileProgram(ctx context.Context, req Request) (*Plan, error) {
	return s.Compile(ctx, req)
}

// compileFlight is Compile's body: the memo fast path, then the
// singleflight table, then leading a compile of our own. A request flies
// under its canonical rendering. sp learns the plan's key and whether the
// compiler ran.
func (s *Session) compileFlight(ctx context.Context, sp *obs.Span, req Request) (plan *Plan, err error) {
	defer func() {
		if plan != nil {
			cache := "miss"
			if plan.stats.Cached {
				cache = "hit"
			}
			sp.SetAttr("plan_key", plan.key)
			sp.SetAttr("cache", cache)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "compile", err)
	}
	ck := canonicalRequest(req)
	for {
		if pd := s.resolve(ck); pd != nil {
			sp.SetAttr("source", "memo")
			return &Plan{planData: pd, stats: cachedStats(pd, false)}, nil
		}
		s.mu.Lock()
		if fl, ok := s.flights[ck]; ok {
			s.mu.Unlock()
			wait := sp.StartChild("singleflight-wait")
			select {
			case <-ctx.Done():
				wait.End()
				return nil, wrapErr(KindCanceled, "compile", ctx.Err())
			case <-fl.done:
			}
			wait.End()
			if fl.err != nil {
				if KindOf(fl.err) == KindCanceled && ctx.Err() == nil {
					continue // the leader was canceled, not us: retry
				}
				return nil, fl.err
			}
			s.mu.Lock()
			s.hits += int64(len(fl.data.keys)) // served by the shared flight: no compile ran for us
			s.mu.Unlock()
			sp.SetAttr("source", "flight")
			return &Plan{planData: fl.data, stats: cachedStats(fl.data, true)}, nil
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[ck] = fl
		s.mu.Unlock()

		sp.SetAttr("flight", "lead")
		return s.lead(ctx, ck, req, fl)
	}
}

// lead runs the compile as a flight's leader, guaranteeing — even on a
// compiler panic — that the flight is removed and its done channel closed,
// so waiters can never block on a dead flight. The request's rendering ck
// is memoized to the payload it compiled to.
func (s *Session) lead(ctx context.Context, ck string, req Request, fl *flight) (plan *Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			fl.err = fmt.Errorf("distal: compile panicked: %v", r)
			plan, err = nil, fl.err
		}
		s.mu.Lock()
		delete(s.flights, ck)
		s.mu.Unlock()
		close(fl.done)
	}()
	plan, err = s.compileSlow(ctx, req)
	if plan != nil {
		fl.data = plan.planData
		s.memoize(ck, plan.planData)
	}
	fl.err = err
	return plan, err
}

func cachedStats(pd *planData, shared bool) CompileStats {
	return CompileStats{Cached: true, Shared: shared, Launches: pd.launches, Points: pd.points}
}

// compileSlow is the leader's body. A single statement's plan is the
// statement's cached payload itself: build the compile input, check the
// plan cache under the content key, and run the compiler on a miss. A
// list's plan is a DAG over its stages' payloads. Request validation and
// statement/format parsing fail as KindParse, schedule parsing and
// application as KindSchedule.
func (s *Session) compileSlow(ctx context.Context, req Request) (*Plan, error) {
	if len(req.Stmts) > 0 {
		return s.compileList(ctx, req)
	}
	in, err := request.Unscheduled(req, s.machine.M)
	if err != nil {
		return nil, wrapErr(KindParse, "compile", err)
	}
	if err := request.Schedule(in, req.Schedule); err != nil {
		return nil, wrapErr(KindSchedule, "compile", err)
	}
	key := core.PlanKey(in)
	if pd := s.lookup(key); pd != nil {
		// Same program already compiled under a different request rendering
		// (e.g. explicit vs. defaulted formats).
		return &Plan{planData: pd, stats: cachedStats(pd, false)}, nil
	}
	start := time.Now()
	rctx, run := obs.Start(ctx, "compiler-run")
	prog, err := core.CompileContext(rctx, in)
	run.End()
	if err != nil {
		return nil, wrapErr(KindCompile, "compile", err)
	}
	pd := s.store(key, newPlanData(s.params, key, in, prog))
	stats := CompileStats{CompileTime: time.Since(start), Launches: pd.launches, Points: pd.points}
	return &Plan{planData: pd, stats: stats}, nil
}

// compileList compiles a statement list into a DAG. Each stage compiles as
// the statement request it names, through the memo, the singleflight table
// and the plan cache, so a statement seen before costs no compiler run; a
// producer/consumer pair that disagrees on an intermediate's layout gets an
// inserted repartition stage.
func (s *Session) compileList(ctx context.Context, req Request) (*Plan, error) {
	prog, err := program.ParseRequest(request.Statement(req), req.Stmts, req.Shapes)
	if err != nil {
		return nil, wrapErr(KindParse, "compile", err)
	}
	// taken guards repartition-region naming against every tensor of the
	// program (and previously inserted repartitions).
	taken := map[string]bool{}
	for name := range prog.Shapes {
		taken[name] = true
	}
	type layout struct{ name, canon string } // a tensor under a canonical format
	type placed struct {
		idx    int    // stage holding this (tensor, layout)
		region string // region name in that stage's program
	}
	var (
		built    []planStage
		placedAt = map[layout]placed{}
		builtOf  = map[string]int{}    // assigned tensor -> producing stage index
		fmtOf    = map[string]string{} // assigned tensor -> canonical producer format
	)
	add := func(plan *Plan, st planStage) int {
		st.stmt, st.stats = plan.planData, plan.stats
		built = append(built, st)
		return len(built) - 1
	}
	for _, st := range prog.Stages {
		assign := st.Assign
		lhs := assign.LHS.Tensor
		stageShapes := map[string][]int{}
		canon := map[string]string{}
		for _, name := range assign.TensorNames() {
			stageShapes[name] = prog.Shapes[name]
			// Layouts compare by canonical rendering: distribution notation
			// normalizes through Placement.String, so two annotations
			// spelled differently but placing identically compare equal.
			p, ferr := request.Placement(st.Src.Formats, name, len(prog.Shapes[name]))
			if ferr != nil {
				return nil, wrapErr(KindParse, "compile", fmt.Errorf("statement %d: %w", st.Index, ferr))
			}
			canon[name] = p.String()
		}
		var inherit []legion.Handoff
		var freshLeaves []layout
		for _, name := range assign.TensorNames() {
			if name == lhs {
				continue
			}
			key := layout{name, canon[name]}
			if pi, ok := builtOf[name]; ok {
				// An earlier stage computed this tensor: adopt its instances
				// when the layouts agree, repartition owner-to-owner when
				// they do not — never through a single leaf.
				if fmtOf[name] == canon[name] {
					inherit = append(inherit, legion.Handoff{From: pi, Region: name, To: name})
					continue
				}
				loc, ok := placedAt[key]
				if !ok {
					rname, plan, rerr := s.repartition(ctx, name, prog.Shapes[name], fmtOf[name], canon[name], taken)
					if rerr != nil {
						return nil, rerr
					}
					loc = placed{region: rname}
					loc.idx = add(plan, planStage{
						inherit: []legion.Handoff{{From: pi, Region: name, To: name}},
						output:  rname,
						repart:  true,
					})
					placedAt[key] = loc
				}
				inherit = append(inherit, legion.Handoff{From: loc.idx, Region: loc.region, To: name})
				continue
			}
			// A leaf input: share the placed instances with any earlier
			// stage that reads it under the same layout (read-only, so
			// adoption is free); a different layout places its own copy.
			if loc, ok := placedAt[key]; ok {
				inherit = append(inherit, legion.Handoff{From: loc.idx, Region: loc.region, To: name})
			} else {
				freshLeaves = append(freshLeaves, key)
			}
		}
		sctx, ssp := obs.Start(ctx, "compile-stage")
		ssp.SetAttr("statement", strconv.Itoa(st.Index))
		ssp.SetAttr("output", lhs)
		plan, cerr := s.compileFlight(sctx, ssp, Request{
			Stmt:     st.Src.Stmt,
			Shapes:   stageShapes,
			Formats:  st.Src.Formats,
			Schedule: st.Src.Schedule,
		})
		ssp.End()
		if cerr != nil {
			return nil, rewrap(cerr, "statement %d", st.Index)
		}
		idx := add(plan, planStage{inherit: inherit, output: lhs})
		for _, key := range freshLeaves {
			placedAt[key] = placed{idx: idx, region: key.name}
		}
		builtOf[lhs] = idx
		fmtOf[lhs] = canon[lhs]
		placedAt[layout{lhs, canon[lhs]}] = placed{idx: idx, region: lhs}
	}

	var (
		ls     []legion.Stage
		inputs []slot
		owned  []slot
		keys   []string
	)
	for _, name := range prog.Inputs() {
		inputs = append(inputs, slot{name: name, shape: prog.Shapes[name]})
	}
	stats := CompileStats{Cached: true}
	h := sha256.New()
	for _, st := range built {
		ls = append(ls, legion.Stage{Prog: st.stmt.prog, Inherit: st.inherit, Label: st.output, Repart: st.repart})
		owned = append(owned, slot{name: st.output, shape: shapeIn(st.stmt.inputs, st.output)})
		keys = append(keys, st.stmt.key)
		h.Write([]byte(st.stmt.key))
		h.Write([]byte{0})
		stats.Cached = stats.Cached && st.stats.Cached
		stats.Shared = stats.Shared || st.stats.Shared
		stats.CompileTime += st.stats.CompileTime
		stats.Launches += st.stats.Launches
		stats.Points += st.stats.Points
	}
	key := hex.EncodeToString(h.Sum(nil))
	if len(keys) == 1 {
		key = keys[0] // a one-stage plan's key is its stage's
	}
	first := built[0].stmt
	pd := &planData{
		runner:       newRunner(s.params, ls, inputs, owned, prog.Output()),
		key:          key,
		keys:         keys,
		bound:        prog.Inputs(),
		launches:     stats.Launches,
		points:       stats.Points,
		prog:         first.prog,
		scheduleText: first.scheduleText,
		notation:     first.notation,
		stages:       built,
	}
	return &Plan{planData: pd, stats: stats}, nil
}

// repartition compiles the explicit layout change between a producer's
// format and a consumer's: the Redistribute identity statement, placed
// src-format in and dst-format out, scheduled owner-computes over the
// destination — so the runtime performs exactly the owner-to-owner copies
// the layout change requires. Its plan resolves through the plan cache like
// any other, and its input region adopts the producer's instances directly.
// It returns the repartitioned region's name and the plan.
func (s *Session) repartition(ctx context.Context, name string, shape []int, srcFmt, dstFmt string, taken map[string]bool) (string, *Plan, error) {
	rname := name + "__r"
	for i := 2; taken[rname]; i++ {
		rname = fmt.Sprintf("%s__r%d", name, i)
	}
	req, err := redistributeRequest(rname, name, shape, srcFmt, dstFmt, s.machine.Processors())
	if err != nil {
		return "", nil, wrapErr(KindParse, "compile", err)
	}
	taken[rname] = true
	ctx, rsp := obs.Start(ctx, "compile-repartition")
	rsp.SetAttr("tensor", name)
	defer rsp.End()
	plan, err := s.compileFlight(ctx, rsp, req)
	if err != nil {
		return "", nil, rewrap(err, "repartitioning %s from %q to %q", name, srcFmt, dstFmt)
	}
	return rname, plan, nil
}

// rewrap prefixes a stage's compile error with where in the list it
// happened, keeping its kind and op.
func rewrap(err error, format string, args ...any) error {
	var de *Error
	if !errors.As(err, &de) {
		return wrapErr(KindCompile, "compile", fmt.Errorf(format+": %w", append(args, err)...))
	}
	return &Error{Kind: de.Kind, Op: de.Op, Err: fmt.Errorf(format+": %w", append(args, de.Err)...)}
}

// Notation returns the concrete index notation of the scheduled statement
// (the loop structure the compiler lowers, §5.1).
func (c *Computation) Notation() string { return c.sched.Notation() }

// ScheduleText returns the schedule in its serializable command form, e.g.
// "divide(i,io,ii,4) reorder(io,jo,ii,ji) distribute(io,jo)".
func (c *Computation) ScheduleText() string { return c.sched.String() }

// AutoSchedule derives a distribution schedule automatically, a first cut
// of the auto-scheduling direction the paper lists as future work (§9). The
// heuristic is owner-computes: the output tensor's index variables are
// tiled over the machine grid (one per grid dimension, in order) and every
// tensor's communication is aggregated at the task level. For computations
// whose data distributions align with the output tiling (TTV, TTM,
// element-wise kernels) this yields communication-free schedules; for
// contractions it yields a broadcast-style schedule comparable to SUMMA
// with one sequential step.
//
// The derived schedule is applied as ordinary scheduling commands, so it
// serializes through ScheduleText like a hand-written one. AutoSchedule
// must be called before any manual scheduling command and returns an error
// if the output has fewer index variables than the machine has grid
// dimensions.
func (c *Computation) AutoSchedule() error {
	cs, err := request.AutoScheduleCommands(c.Stmt, c.Machine.M.LeafGrid().Dims)
	if err != nil {
		return err
	}
	return c.sched.Apply(cs).Err()
}

// ApplySchedule parses scheduling-command text and applies it to the
// computation's schedule, after any commands already applied.
func (c *Computation) ApplySchedule(src string) error {
	cs, err := schedule.Parse(src)
	if err != nil {
		return err
	}
	return c.sched.Apply(cs).Err()
}
