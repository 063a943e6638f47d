package sim

import (
	"fmt"

	"distal/internal/machine"
)

// Sim is the mutable state of one simulated execution over a machine: the
// availability times of every contended resource, plus accounting for
// communication volume and memory footprint.
//
// Scheduling is greedy in issue order: every operation is given the earliest
// start compatible with its readiness time and with the FIFO availability of
// the resources it occupies. This makes overlap of communication and
// computation emerge naturally (copies and compute use disjoint resources)
// while still serializing conflicting uses of a port, NIC, or processor.
type Sim struct {
	Machine *machine.Machine
	Params  Params

	leafGrid machine.Grid
	nNodes   int
	nodeOf   []int // per leaf: node index, precomputed (hot in copy pricing)

	procFree []float64 // per leaf: next time the processor is idle
	outFree  []float64 // per leaf: next time its memory out-port is idle
	inFree   []float64 // per leaf: next time its memory in-port is idle
	nicOut   []float64 // per node: next time its NIC egress is idle
	nicIn    []float64 // per node: next time its NIC ingress is idle

	memUsed []int64 // per leaf: currently live bytes
	memPeak []int64 // per leaf: high-water mark

	// Totals.
	IntraBytes int64
	InterBytes int64
	CopyCount  int64
	FlopsTotal float64
	makespan   float64
	oomProc    int
	oomBytes   int64
}

// New returns a fresh simulation over m with the given cost model.
func New(m *machine.Machine, p Params) *Sim {
	s := &Sim{}
	s.Reset(m, p)
	return s
}

// Reset makes s a fresh simulation over m with the given cost model, as New
// would return, reusing the per-leaf and per-node arrays of its previous
// simulation when they are large enough.
func (s *Sim) Reset(m *machine.Machine, p Params) {
	lg := m.LeafGrid()
	n, outer := lg.Size(), m.Nodes()
	// The per-leaf and per-node availability times share one backing, the
	// memory counters another; each grows only past its capacity and comes
	// back zeroed.
	times := append(s.procFree[:0], make([]float64, 3*n+2*outer)...)
	mem := append(s.memUsed[:0], make([]int64, 2*n)...)
	nodeOf := append(s.nodeOf[:0], make([]int, n+lg.Rank())...)
	*s = Sim{
		Machine:  m,
		Params:   p,
		leafGrid: lg,
		nNodes:   outer,
		procFree: times[:n], // each backing's first array keeps its capacity
		outFree:  times[n : 2*n],
		inFree:   times[2*n : 3*n],
		nicOut:   times[3*n : 3*n+outer],
		nicIn:    times[3*n+outer:],
		memUsed:  mem[:n],
		memPeak:  mem[n:],
		nodeOf:   nodeOf[:n],
		oomProc:  -1,
	}
	coord := nodeOf[n:]
	for l := 0; l < n; l++ {
		lg.DelinearizeInto(l, coord)
		s.nodeOf[l] = m.NodeOf(coord)
	}
}

// LeafGrid returns the flattened leaf-processor grid.
func (s *Sim) LeafGrid() machine.Grid { return s.leafGrid }

// NodeOf returns the node (outermost-grid flat index) of leaf l.
func (s *Sim) NodeOf(l int) int { return s.nodeOf[l] }

func (s *Sim) observe(t float64) {
	if t > s.makespan {
		s.makespan = t
	}
}

// Makespan returns the completion time of the last scheduled operation.
func (s *Sim) Makespan() float64 { return s.makespan }

// Alloc records bytes of live data on leaf l's memory. It never fails;
// capacity violations are reported by OOM() at the end.
func (s *Sim) Alloc(l int, bytes int64) {
	s.memUsed[l] += bytes
	if s.memUsed[l] > s.memPeak[l] {
		s.memPeak[l] = s.memUsed[l]
	}
	if float64(s.memUsed[l]) > s.Params.MemCapacity && s.oomProc < 0 {
		s.oomProc = l
		s.oomBytes = s.memUsed[l]
	}
}

// Free releases bytes of live data on leaf l's memory.
func (s *Sim) Free(l int, bytes int64) {
	s.memUsed[l] -= bytes
	if s.memUsed[l] < 0 {
		panic(fmt.Sprintf("sim: negative memory on leaf %d", l))
	}
}

// OOM reports whether any leaf exceeded its memory capacity, and the worst
// offender's peak footprint.
func (s *Sim) OOM() (bool, int, int64) {
	return s.oomProc >= 0, s.oomProc, s.oomBytes
}

// PeakMem returns the largest per-leaf memory high-water mark.
func (s *Sim) PeakMem() int64 {
	var max int64
	for _, b := range s.memPeak {
		if b > max {
			max = b
		}
	}
	return max
}

// Compute schedules a leaf computation of the given FLOPs and memory traffic
// on leaf l, not before ready, and returns its completion time. Duration is
// the roofline max of compute and bandwidth time.
func (s *Sim) Compute(l int, flops, bytes float64, ready float64) float64 {
	dur := flops / s.Params.PeakFlops
	if bw := bytes / s.Params.MemBandwidth; bw > dur {
		dur = bw
	}
	start := ready
	if s.procFree[l] > start {
		start = s.procFree[l]
	}
	end := start + dur
	s.procFree[l] = end
	s.FlopsTotal += flops
	s.observe(end)
	return end
}

// CopyPricer prices the candidate sources of one copy: bytes moved into
// leaf dst, issued no earlier than issueAt. PriceCopies reads the
// destination's in-port and NIC once; End then reads only source-side state,
// and prices each cost class's duration — occupancy, latency and replica
// overhead, which depend on the source only through the intra-/inter-node
// split — once, on first use. An End is exactly the end time Copy would
// return for that source and the ready time max(issueAt, validAt), without
// committing anything: max is exact, so the order in which the start terms
// are taken cannot change it.
type CopyPricer struct {
	s         *Sim
	dstNode   int
	bytes     int64
	srcGPUMem bool
	replicas  int
	// intraStart is the destination's bound on an intra-node copy's start
	// (issueAt and the in-port), interStart adds its NIC ingress.
	intraStart, interStart float64
	intraCost, interCost   float64
	haveIntra, haveInter   bool
}

// PriceCopies readies p to price copies of bytes into leaf dst issued no
// earlier than issueAt, with srcGPUMem and replicas as Copy takes them.
func (s *Sim) PriceCopies(p *CopyPricer, dst int, bytes int64, issueAt float64, srcGPUMem bool, replicas int) {
	dn := s.nodeOf[dst]
	intra := maxf(issueAt, s.inFree[dst])
	p.s, p.dstNode, p.bytes, p.srcGPUMem, p.replicas = s, dn, bytes, srcGPUMem, replicas
	p.intraStart, p.interStart = intra, maxf(intra, s.nicIn[dn])
	p.haveIntra, p.haveInter = false, false
}

// End returns the end time of the copy from leaf src, whose data is valid
// from validAt.
func (p *CopyPricer) End(src int, validAt float64) float64 {
	s := p.s
	start := maxf(validAt, s.outFree[src])
	if sn := s.nodeOf[src]; sn != p.dstNode {
		if !p.haveInter {
			p.priceClass(true)
		}
		return maxf(maxf(start, s.nicOut[sn]), p.interStart) + p.interCost
	}
	if !p.haveIntra {
		p.priceClass(false)
	}
	return maxf(start, p.intraStart) + p.intraCost
}

// priceClass prices the intra- or inter-node cost class.
func (p *CopyPricer) priceClass(inter bool) {
	c := p.s.classCost(inter, p.bytes, p.srcGPUMem, p.replicas)
	if inter {
		p.interCost, p.haveInter = c, true
	} else {
		p.intraCost, p.haveIntra = c, true
	}
}

// Copy schedules a transfer of bytes from leaf src to leaf dst, not before
// ready, commits the resources, accounts the traffic, and returns its
// completion time. srcGPUMem marks the source instance as residing in GPU
// framebuffer memory (triggering the DMA source penalty on inter-node
// links); replicas is the number of valid replicas of the source piece
// (runtime-overhead model).
func (s *Sim) Copy(src, dst int, bytes int64, ready float64, srcGPUMem bool, replicas int) float64 {
	start, end := s.copyTimes(src, dst, bytes, ready, srcGPUMem, replicas)
	sn, dn := s.nodeOf[src], s.nodeOf[dst]
	occEnd := start + s.occupancy(sn != dn, bytes, srcGPUMem)
	if sn == dn {
		s.outFree[src] = occEnd
		s.inFree[dst] = occEnd
		s.IntraBytes += bytes
	} else {
		s.nicOut[sn] = occEnd
		s.nicIn[dn] = occEnd
		s.outFree[src] = occEnd
		s.inFree[dst] = occEnd
		s.InterBytes += bytes
	}
	s.CopyCount++
	s.observe(end)
	return end
}

// occupancy is how long a copy of bytes holds its ports (and, inter-node,
// its NICs).
func (s *Sim) occupancy(inter bool, bytes int64, srcGPUMem bool) float64 {
	if !inter {
		return float64(bytes) / s.Params.IntraBW
	}
	bw := s.Params.InterBW
	if srcGPUMem && s.Params.SrcPenaltyBW > 0 {
		bw = s.Params.SrcPenaltyBW
	}
	return float64(bytes) / bw
}

// classCost is the availability-independent duration of a copy: link
// occupancy, link latency and replica overhead.
func (s *Sim) classCost(inter bool, bytes int64, srcGPUMem bool, replicas int) float64 {
	lat := s.Params.IntraLatency
	if inter {
		lat = s.Params.InterLatency
	}
	// float64 rounds the product, so no port fuses it into the addition
	// (docs/ARCHITECTURE.md, "Floats round every product").
	return s.occupancy(inter, bytes, srcGPUMem) + lat + float64(s.Params.ReplicaOverhead*float64(replicas))
}

// copyTimes returns when a copy from src to dst ready at ready would start
// and end: the start is the readiness time pushed past the FIFO
// availability of the ports and NICs the copy occupies.
func (s *Sim) copyTimes(src, dst int, bytes int64, ready float64, srcGPUMem bool, replicas int) (start, end float64) {
	start = ready
	sn, dn := s.nodeOf[src], s.nodeOf[dst]
	if sn != dn {
		if s.nicOut[sn] > start {
			start = s.nicOut[sn]
		}
		if s.nicIn[dn] > start {
			start = s.nicIn[dn]
		}
	}
	if s.outFree[src] > start {
		start = s.outFree[src]
	}
	if s.inFree[dst] > start {
		start = s.inFree[dst]
	}
	return start, start + s.classCost(sn != dn, bytes, srcGPUMem, replicas)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Barrier advances every processor's availability to at least t. It models
// a global synchronization point (used by non-overlapping baselines).
func (s *Sim) Barrier() float64 {
	var t float64
	for _, f := range s.procFree {
		if f > t {
			t = f
		}
	}
	for i := range s.procFree {
		if s.procFree[i] < t {
			s.procFree[i] = t
		}
	}
	s.observe(t)
	return t
}

// ProcFree returns when leaf l's processor becomes idle.
func (s *Sim) ProcFree(l int) float64 { return s.procFree[l] }
