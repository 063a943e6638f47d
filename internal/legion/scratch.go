package legion

import (
	"sync"

	"distal/internal/sim"
)

// walkScratch is the memory of a walk that outlives it. Analyse takes one
// from walkPool and returns it when the walk ends, so a warm walk reuses an
// earlier walk's simulator arrays, region states (with their owner rects,
// instance lists, rect-id indexes and owner index), slab chunks and buffers
// instead of allocating them. Nothing a walk hands out — its Result, the
// Result's Trace, a Tape — points into the scratch: the trace's points and
// rects are fresh, and a tape's rects are the program's Region.Rects.
type walkScratch struct {
	sim    sim.Sim
	reg    map[*Region]*regState
	slotOf map[*Region]int32
	// states holds every region state the scratch has carried; a walk
	// reuses them in placement order, placed counting those in use.
	states []*regState
	placed int

	insts   slab[instance]
	groups  slab[transGroup]
	accSlab slab[accumulator]

	// endRows holds the per-leaf task end-time rows, rows counting those in
	// use; endHist lists the recent launches' rows, oldest first (see the
	// executor's double-buffering throttle).
	endRows [][]float64
	rows    int
	endHist [][]float64

	accSeq   []*accumulator
	flushBuf []*accumulator // scratch for one flush group
	heads    []*instance    // ensureLocal's merge cursors, one per candidate group
	pricer   sim.CopyPricer // ensureLocal's pricer of the miss in progress
	reqState []*regState    // the region state of each requirement of the launch in progress
	taskAccs []*accumulator // per-point write-target buffer
	reqs     []Req          // the requirements of the point being walked
	coord    []int          // leaf-coordinate scratch
	rectBuf  []int          // owner-rect scratch
}

var walkPool = sync.Pool{New: func() any {
	return &walkScratch{reg: map[*Region]*regState{}, slotOf: map[*Region]int32{}}
}}

// regState returns a region state for the walk to place, holding the buffers
// of the state it was in an earlier walk.
func (sc *walkScratch) regState() *regState {
	if sc.placed == len(sc.states) {
		sc.states = append(sc.states, &regState{volBuckets: map[int64][]*transGroup{}})
	}
	rs := sc.states[sc.placed]
	sc.placed++
	return rs
}

// endRow returns a zeroed end-time row of n leaves.
func (sc *walkScratch) endRow(n int) []float64 {
	if sc.rows == len(sc.endRows) {
		sc.endRows = append(sc.endRows, nil)
	}
	r := resize(sc.endRows[sc.rows], n)
	sc.endRows[sc.rows] = r
	sc.rows++
	return r
}

// release readies the scratch for the next walk, dropping what points
// outside it, and returns it to the pool.
func (sc *walkScratch) release() {
	clear(sc.reg)
	clear(sc.slotOf)
	for _, rs := range sc.states[:sc.placed] {
		rs.region = nil
	}
	sc.placed, sc.rows = 0, 0
	sc.insts.reset()
	sc.groups.reset()
	sc.accSlab.reset()
	sc.endHist = sc.endHist[:0]
	sc.accSeq = sc.accSeq[:0]
	walkPool.Put(sc)
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
