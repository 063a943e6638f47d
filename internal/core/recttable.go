package core

import "distal/internal/tensor"

// rectTable numbers one tensor's distinct requirement rects densely, in
// first-appearance order. It is an open-addressed hash set of rect ids: a
// slot holds id+1 (0 is empty) and is found by a hash of the bounds, and a
// probe compares the bounds with the id's own, kept lo then hi in one int
// slab, so no key is ever built. Tables are compile scratch: reset keeps
// their storage for the next compile.
type rectTable struct {
	rank  int
	n     int32   // rects numbered
	slots []int32 // power-of-two length, at most half full
	ints  []int   // rect id's lo then hi at [2*rank*id, 2*rank*(id+1))
}

// minRectSlots is a fresh table's slot count: it holds 64 rects before it
// first grows. A table that grew past maxKeptRectSlots gives its slots up at
// reset, so one huge plan does not make every later compile clear them.
const (
	minRectSlots     = 128
	maxKeptRectSlots = 1 << 16
)

// reset empties t for rects of the given rank.
func (t *rectTable) reset(rank int) {
	t.rank, t.n, t.ints = rank, 0, t.ints[:0]
	if len(t.slots) == 0 || len(t.slots) > maxKeptRectSlots {
		t.slots = make([]int32, minRectSlots)
		return
	}
	clear(t.slots)
}

// intern returns the id of the rect [lo, hi), numbering it when it is new.
func (t *rectTable) intern(lo, hi []int) int32 {
	mask := uint64(len(t.slots) - 1)
	i := rectHash(lo, hi) & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.has(id, lo, hi) {
			return id
		}
	}
	id := t.n
	t.n++
	t.slots[i] = id + 1
	t.ints = append(append(t.ints, lo...), hi...)
	if 2*int(t.n) > len(t.slots) {
		t.grow()
	}
	return id
}

// at returns rect id's bounds, which alias the table.
func (t *rectTable) at(id int32) (lo, hi []int) {
	k := 2 * t.rank * int(id)
	return t.ints[k : k+t.rank], t.ints[k+t.rank : k+2*t.rank]
}

func (t *rectTable) has(id int32, lo, hi []int) bool {
	b := t.ints[2*t.rank*int(id):]
	for d := range lo {
		if b[d] != lo[d] || b[t.rank+d] != hi[d] {
			return false
		}
	}
	return true
}

// grow doubles the slots and re-inserts every id.
func (t *rectTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id := range t.n {
		lo, hi := t.at(id)
		i := rectHash(lo, hi) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id + 1
	}
}

// rects returns the table's rects by id, their bounds copied into one
// freshly allocated slab: a program keeps them, so they must not alias the
// table.
func (t *rectTable) rects() []tensor.Rect {
	ints := append([]int(nil), t.ints...)
	out := make([]tensor.Rect, t.n)
	r := t.rank
	for id := range out {
		k := 2 * r * id
		out[id] = tensor.Rect{Lo: ints[k : k+r : k+r], Hi: ints[k+r : k+2*r : k+2*r]}
	}
	return out
}

// rectHash mixes the bounds into a hash whose low bits depend on every bit
// of every bound (tile bounds often share their low bits).
func rectHash(lo, hi []int) uint64 {
	h := uint64(len(lo))
	for d := range lo {
		h = (h ^ uint64(lo[d])) * 0x9e3779b97f4a7c15
		h = (h ^ uint64(hi[d])) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}
