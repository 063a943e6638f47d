package distal

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"distal/internal/legion"
	"distal/internal/obs"
	"distal/internal/program"
	"distal/internal/request"
)

// ProgramPlan is a compiled multi-statement program: one immutable plan per
// statement (each resolved through the session's plan cache and
// singleflight, exactly as a single-statement Compile would), wired into a
// DAG that executes stage by stage with intermediates kept distributed in
// between. A producer's output instances are handed to the consumer as
// pre-placed initial instances; when producer and consumer disagree on an
// intermediate's format, an explicit repartition stage (the Redistribute
// schedule, itself a cached plan) moves the data owner-to-owner — an
// intermediate never gathers to a single leaf between stages.
//
// Like Plan, a ProgramPlan is data-free and safe for concurrent use, and it
// runs through the same Simulate, Bind, BindBatch and BindStacked: bind
// leaf-input data per execution; outputs are allocated privately per
// binding, intermediates per Binding or, for a BatchBinding, borrowed from
// the compiled program for the length of each run. The session memoizes the
// compiled DAG under its request, so every handle a repeated request
// resolves to shares one analysis: the first Real run of any of them
// analyses the DAG for every later run.
type ProgramPlan struct {
	*programData
	stats CompileStats
}

// programData is the immutable compiled DAG a ProgramPlan wraps and the
// request memo stores; as with planData, only the runner's tape and
// intermediate pool change after compilation.
type programData struct {
	runner
	prog     *program.Program
	stages   []*programStage
	key      string
	launches int
	points   int
}

// programStage is one stage of the compiled DAG: a source statement's plan
// or an inserted repartition, with the handoffs wiring it to earlier stages.
type programStage struct {
	plan    *Plan
	inherit []legion.Handoff
	output  string // this stage's LHS region: allocated per execution
	shape   []int
	repart  bool // an inserted repartition, not a source statement
}

// CompileProgram compiles a multi-statement request into a ProgramPlan.
// req.Stmts carries the statements (with per-statement formats and
// schedules) and req.Shapes declares the leaf inputs only — intermediate
// shapes are inferred from their producers, and a Shapes entry for an
// assigned tensor (equivalently, an intermediate name colliding with an
// input's) is rejected as KindParse. Each stage compiles through the
// session's plan cache, so re-compiling a program whose statements were
// seen before costs no compiler run at all, and two programs sharing a
// statement share its plan. A request seen before resolves through the
// request memo to the DAG it compiled to, without parsing anything; the
// entry lives while every stage plan stays cached.
func (s *Session) CompileProgram(ctx context.Context, req Request) (*ProgramPlan, error) {
	ctx, sp := obs.Start(ctx, "compile-program")
	defer sp.End()
	pp, err := s.compileProgram(ctx, sp, req)
	if pp != nil {
		sp.SetAttr("plan_key", pp.key)
		if pp.stats.Cached {
			sp.SetAttr("cache", "hit")
		} else {
			sp.SetAttr("cache", "miss")
		}
	}
	return pp, err
}

// compileProgram is CompileProgram's body: the memo fast path, then a
// compile of every stage through the plan cache.
func (s *Session) compileProgram(ctx context.Context, sp *obs.Span, req Request) (*ProgramPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(KindCanceled, "compile-program", err)
	}
	if len(req.Stmts) == 0 {
		return nil, wrapErr(KindParse, "compile-program", fmt.Errorf("request has no statements (put them in Stmts)"))
	}
	if req.Stmt != "" || req.Schedule != "" || len(req.Formats) > 0 {
		return nil, wrapErr(KindParse, "compile-program",
			fmt.Errorf("multi-statement requests put statements, formats, and schedules inside Stmts; the top-level Stmt/Formats/Schedule must be empty"))
	}
	ck := canonicalRequest(req)
	if pd := s.resolveProgram(ck); pd != nil {
		sp.SetAttr("source", "memo")
		return &ProgramPlan{programData: pd, stats: CompileStats{Cached: true, Launches: pd.launches, Points: pd.points}}, nil
	}
	prog, err := program.Parse(req.Stmts, req.Shapes)
	if err != nil {
		return nil, wrapErr(KindParse, "compile-program", err)
	}

	// taken guards repartition-region naming against every tensor of the
	// program (and previously inserted repartitions).
	taken := map[string]bool{}
	for name := range prog.Shapes {
		taken[name] = true
	}
	type placed struct {
		idx    int    // stage holding this (tensor, layout)
		region string // region name in that stage's program
	}
	var (
		built    []*programStage
		placedAt = map[string]placed{} // name + "\x00" + canonical format -> location
		builtOf  = map[string]int{}    // assigned tensor -> producing stage index
		fmtOf    = map[string]string{} // assigned tensor -> canonical producer format
	)
	layoutKey := func(name, canon string) string { return name + "\x00" + canon }
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
				return nil, wrapErr(KindParse, "compile-program", fmt.Errorf("statement %d: %w", st.Index, ferr))
			}
			canon[name] = p.String()
		}
		var inherit []legion.Handoff
		var freshLeaves []string
		for _, name := range assign.TensorNames() {
			if name == lhs {
				continue
			}
			key := layoutKey(name, canon[name])
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
					rst, rerr := s.repartitionStage(ctx, name, prog.Shapes[name], fmtOf[name], canon[name], pi, taken)
					if rerr != nil {
						return nil, rerr
					}
					loc = placed{idx: len(built), region: rst.output}
					built = append(built, rst)
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
		ssp.SetAttr("statement", fmt.Sprint(st.Index))
		ssp.SetAttr("output", lhs)
		plan, cerr := s.Compile(sctx, Request{
			Stmt:     st.Src.Stmt,
			Shapes:   stageShapes,
			Formats:  st.Src.Formats,
			Schedule: st.Src.Schedule,
		})
		ssp.End()
		if cerr != nil {
			return nil, &Error{Kind: KindOf(cerr), Op: "compile-program", Err: fmt.Errorf("statement %d: %w", st.Index, cerr)}
		}
		idx := len(built)
		built = append(built, &programStage{
			plan:    plan,
			inherit: inherit,
			output:  lhs,
			shape:   prog.Shapes[lhs],
		})
		for _, key := range freshLeaves {
			name := key[:strings.IndexByte(key, 0)]
			placedAt[key] = placed{idx: idx, region: name}
		}
		builtOf[lhs] = idx
		fmtOf[lhs] = canon[lhs]
		placedAt[layoutKey(lhs, canon[lhs])] = placed{idx: idx, region: lhs}
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
		ls = append(ls, legion.Stage{Prog: st.plan.prog, Inherit: st.inherit, Label: st.output, Repart: st.repart})
		owned = append(owned, slot{name: st.output, shape: st.shape})
		keys = append(keys, st.plan.key)
		h.Write([]byte(st.plan.key))
		h.Write([]byte{0})
		sst := st.plan.stats
		if !sst.Cached {
			stats.Cached = false
		}
		if sst.Shared {
			stats.Shared = true
		}
		stats.CompileTime += sst.CompileTime
		stats.Launches += sst.Launches
		stats.Points += sst.Points
	}
	pd := &programData{
		runner:   newRunner(s.params, ls, inputs, owned, prog.Output()),
		prog:     prog,
		stages:   built,
		key:      hex.EncodeToString(h.Sum(nil)),
		launches: stats.Launches,
		points:   stats.Points,
	}
	s.memoize(&memoEntry{ck: ck, keys: keys, prog: pd})
	return &ProgramPlan{programData: pd, stats: stats}, nil
}

// repartitionStage compiles the explicit layout change between a producer's
// format and a consumer's: the Redistribute identity statement, placed
// src-format in and dst-format out, scheduled owner-computes over the
// destination — so the runtime performs exactly the owner-to-owner copies
// the layout change requires. The stage's plan resolves through the plan
// cache like any other, and its input region adopts the producer's
// instances directly.
func (s *Session) repartitionStage(ctx context.Context, name string, shape []int, srcFmt, dstFmt string, from int, taken map[string]bool) (*programStage, error) {
	if len(shape) == 0 || len(shape) > 6 {
		return nil, wrapErr(KindParse, "compile-program",
			fmt.Errorf("intermediate %s has rank %d; repartitioning supports ranks 1..6", name, len(shape)))
	}
	rname := name + "__r"
	for i := 2; taken[rname]; i++ {
		rname = fmt.Sprintf("%s__r%d", name, i)
	}
	taken[rname] = true
	stmt, sched := redistributeText(rname, name, len(shape), s.machine.Processors())
	ctx, rsp := obs.Start(ctx, "compile-repartition")
	rsp.SetAttr("tensor", name)
	defer rsp.End()
	plan, err := s.Compile(ctx, Request{
		Stmt:     stmt,
		Shapes:   map[string][]int{name: shape, rname: shape},
		Formats:  map[string]string{name: srcFmt, rname: dstFmt},
		Schedule: sched,
	})
	if err != nil {
		return nil, &Error{Kind: KindOf(err), Op: "compile-program",
			Err: fmt.Errorf("repartitioning %s from %q to %q: %w", name, srcFmt, dstFmt, err)}
	}
	return &programStage{
		plan:    plan,
		inherit: []legion.Handoff{{From: from, Region: name, To: name}},
		output:  rname,
		shape:   shape,
		repart:  true,
	}, nil
}

// Key returns the program plan's cache key: a hash over the stage plan keys
// in execution order (repartition stages included), so two programs with
// equal keys execute identical DAGs.
func (p *ProgramPlan) Key() string { return p.key }

// Stats aggregates the per-stage compile stats: Cached only when every
// stage was served without a compiler run (always for a memo-resolved
// program), CompileTime/Launches/Points summed across stages.
func (p *ProgramPlan) Stats() CompileStats { return p.stats }

// Stages returns the number of execution stages, inserted repartitions
// included.
func (p *ProgramPlan) Stages() int { return len(p.stages) }

// Repartitions returns how many explicit layout-change stages the DAG
// carries (zero when every producer/consumer pair agreed on formats).
func (p *ProgramPlan) Repartitions() int {
	n := 0
	for _, st := range p.stages {
		if st.repart {
			n++
		}
	}
	return n
}

// StageMeta describes one execution stage of the DAG for reporting surfaces
// (the serve layer's Distal-Stages header, CLI -v rows): static facts only —
// per-stage wall time lives in the request trace.
type StageMeta struct {
	Output   string
	PlanKey  string
	Cached   bool
	Repart   bool
	Launches int
	Points   int
}

// StageMetas returns one StageMeta per execution stage, repartitions
// included, in execution order. A stage is Cached when this handle's compile
// ran no compiler for it: every stage of a memo-resolved program.
func (p *ProgramPlan) StageMetas() []StageMeta {
	out := make([]StageMeta, len(p.stages))
	for i, st := range p.stages {
		sst := st.plan.Stats()
		out[i] = StageMeta{
			Output:   st.output,
			PlanKey:  st.plan.Key(),
			Cached:   p.stats.Cached || sst.Cached,
			Repart:   st.repart,
			Launches: sst.Launches,
			Points:   sst.Points,
		}
	}
	return out
}

// StagePlans returns the per-stage plans in execution order (repartition
// stages included). The caller must not mutate the returned slice.
func (p *ProgramPlan) StagePlans() []*Plan {
	plans := make([]*Plan, len(p.stages))
	for i, st := range p.stages {
		plans[i] = st.plan
	}
	return plans
}

// Inputs returns the program's leaf inputs in first-use order — the tensors
// an execution binds (and the wire frame order of POST /v1/run). The caller
// must not mutate the returned slice.
func (p *ProgramPlan) Inputs() []string { return p.prog.Inputs() }

// Shape returns the shape of the named tensor (leaf inputs as declared,
// assigned tensors as inferred), or nil for unknown names.
func (p *ProgramPlan) Shape(name string) []int { return p.prog.Shapes[name] }
