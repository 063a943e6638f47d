// Package machine models target machines as multi-dimensional grids of
// abstract processors, each with a local memory, per §3.1 of the DISTAL
// paper. Machines are hierarchical: each abstract processor of one level may
// itself be a grid (e.g. a 2-D grid of nodes, each a 1-D grid of GPUs).
package machine

import (
	"fmt"
	"strings"
)

// MemKind names the memory in which a processor keeps its local data.
type MemKind int

const (
	// SysMem is host DRAM attached to a CPU socket.
	SysMem MemKind = iota
	// GPUFBMem is GPU framebuffer (HBM) memory.
	GPUFBMem
)

func (m MemKind) String() string {
	switch m {
	case SysMem:
		return "SysMem"
	case GPUFBMem:
		return "GPUFBMem"
	default:
		return fmt.Sprintf("MemKind(%d)", int(m))
	}
}

// ProcKind names the kind of processor that executes leaf tasks.
type ProcKind int

const (
	// CPU is a multi-core CPU socket treated as one abstract processor.
	CPU ProcKind = iota
	// GPU is a single GPU.
	GPU
)

func (p ProcKind) String() string {
	switch p {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("ProcKind(%d)", int(p))
	}
}

// Grid is a multi-dimensional processor grid shape.
type Grid struct {
	Dims []int
}

// NewGrid returns a grid with the given extents, all of which must be >= 1.
func NewGrid(dims ...int) Grid {
	for _, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("machine: grid dimension %v must be >= 1", dims))
		}
	}
	return Grid{Dims: append([]int(nil), dims...)}
}

// Rank returns the number of grid dimensions.
func (g Grid) Rank() int { return len(g.Dims) }

// Size returns the total number of processors in the grid.
func (g Grid) Size() int {
	n := 1
	for _, d := range g.Dims {
		n *= d
	}
	return n
}

// Linearize converts a grid coordinate to a flat index in row-major order.
func (g Grid) Linearize(p []int) int {
	if len(p) != len(g.Dims) {
		panic(fmt.Sprintf("machine: coordinate %v has wrong rank for grid %v", p, g.Dims))
	}
	idx := 0
	for d, x := range p {
		if x < 0 || x >= g.Dims[d] {
			panic(fmt.Sprintf("machine: coordinate %v out of grid %v", p, g.Dims))
		}
		idx = idx*g.Dims[d] + x
	}
	return idx
}

// Delinearize converts a flat index back into a grid coordinate.
func (g Grid) Delinearize(idx int) []int {
	p := make([]int, len(g.Dims))
	g.DelinearizeInto(idx, p)
	return p
}

// DelinearizeInto converts a flat index into a grid coordinate without
// allocating; out must have length Rank().
func (g Grid) DelinearizeInto(idx int, out []int) {
	if idx < 0 || idx >= g.Size() {
		panic(fmt.Sprintf("machine: index %d out of grid %v", idx, g.Dims))
	}
	for d := len(g.Dims) - 1; d >= 0; d-- {
		out[d] = idx % g.Dims[d]
		idx /= g.Dims[d]
	}
}

// Points calls f for every coordinate of the grid in row-major order. The
// slice is reused; f must not retain it.
func (g Grid) Points(f func(p []int)) {
	n := g.Size()
	for i := 0; i < n; i++ {
		f(g.Delinearize(i))
	}
}

func (g Grid) String() string {
	parts := make([]string, len(g.Dims))
	for i, d := range g.Dims {
		parts[i] = fmt.Sprint(d)
	}
	return "Grid(" + strings.Join(parts, ",") + ")"
}

// Machine is a (possibly hierarchical) distributed machine: a grid of
// abstract processors with local memories of kind Mem executing on ProcKind
// processors. If Child is non-nil, every abstract processor of this level is
// itself a machine with the Child's organization (e.g. nodes containing
// GPUs); leaf processors live at the deepest level.
type Machine struct {
	Grid Grid
	Mem  MemKind
	Proc ProcKind

	Child *Machine

	// ProcsPerNode, when positive, declares that consecutive leaf processors
	// (in row-major leaf order) share a physical node in groups of this
	// size. It lets a logically flat grid (e.g. a 32x32 grid of GPUs)
	// preserve the node structure of the physical machine (4 GPUs per
	// node). When zero, each coordinate of the outermost grid is one node.
	ProcsPerNode int

	leaf Grid // LeafGrid, computed when the machine is built
}

// New returns a flat machine over the grid with the given memory/processor
// kinds.
func New(g Grid, mem MemKind, proc ProcKind) *Machine {
	return &Machine{Grid: g, Mem: mem, Proc: proc, leaf: g}
}

// WithChild returns a copy of m whose abstract processors are each organized
// as the child machine. It is the only constructor of a multi-level machine;
// no request, CLI or server builds one, so only tests (in six packages)
// reach the hierarchical paths through it.
func (m *Machine) WithChild(child *Machine) *Machine {
	cp := *m
	cp.Child = child
	cp.leaf = NewGrid(append(append([]int(nil), m.Grid.Dims...), child.leaf.Dims...)...)
	return &cp
}

// Levels returns the machines from outermost to innermost.
func (m *Machine) Levels() []*Machine {
	var out []*Machine
	for cur := m; cur != nil; cur = cur.Child {
		out = append(out, cur)
	}
	return out
}

// LeafCount returns the total number of leaf processors across all levels.
func (m *Machine) LeafCount() int {
	n := 1
	for _, lvl := range m.Levels() {
		n *= lvl.Grid.Size()
	}
	return n
}

// LeafGrid returns the flattened grid whose dimensions are the concatenation
// of all levels' dimensions. Coordinates in this grid identify single leaf
// processors. The grid is the machine's own, computed by New and WithChild:
// callers must not modify its dimensions.
func (m *Machine) LeafGrid() Grid { return m.leaf }

// LeafMem returns the memory kind of leaf processors (the innermost level).
func (m *Machine) LeafMem() MemKind {
	lv := m.Levels()
	return lv[len(lv)-1].Mem
}

// NodeOf maps a leaf-grid coordinate to its node's flat index. Two leaves
// with equal NodeOf share a node and communicate over intra-node links.
func (m *Machine) NodeOf(leaf []int) int {
	if m.ProcsPerNode > 0 {
		// Row-major over the concatenated level grids is row-major within
		// each level, nested outermost first.
		idx, off := 0, 0
		for lvl := m; lvl != nil; lvl = lvl.Child {
			g := lvl.Grid
			if off+g.Rank() > len(leaf) {
				panic(fmt.Sprintf("machine: leaf coordinate %v shorter than leaf grid of %v", leaf, m))
			}
			idx = idx*g.Size() + g.Linearize(leaf[off:off+g.Rank()])
			off += g.Rank()
		}
		if off != len(leaf) {
			panic(fmt.Sprintf("machine: leaf coordinate %v longer than leaf grid of %v", leaf, m))
		}
		return idx / m.ProcsPerNode
	}
	outer := m.Grid
	if len(leaf) < outer.Rank() {
		panic(fmt.Sprintf("machine: leaf coordinate %v shorter than outer grid %v", leaf, outer.Dims))
	}
	return outer.Linearize(leaf[:outer.Rank()])
}

// Nodes returns the number of physical nodes in the machine.
func (m *Machine) Nodes() int {
	if m.ProcsPerNode > 0 {
		return (m.LeafCount() + m.ProcsPerNode - 1) / m.ProcsPerNode
	}
	return m.Grid.Size()
}

// WithProcsPerNode returns a copy of m grouping consecutive leaves into
// nodes of the given size.
func (m *Machine) WithProcsPerNode(n int) *Machine {
	cp := *m
	cp.ProcsPerNode = n
	return &cp
}

func (m *Machine) String() string {
	var b strings.Builder
	for i, lvl := range m.Levels() {
		if i > 0 {
			b.WriteString(" of ")
		}
		fmt.Fprintf(&b, "%s[%s/%s]", lvl.Grid, lvl.Proc, lvl.Mem)
	}
	return b.String()
}
