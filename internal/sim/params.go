// Package sim is a discrete-event performance simulator for the machines
// DISTAL targets. It models leaf processors (compute throughput), their
// local memories (capacity and bandwidth), and the communication fabric
// (per-processor ports, per-node NICs, α-β transfer costs, and contention by
// serialization). The Legion-like runtime in internal/legion drives it to
// obtain execution times, communication volumes, and peak memory footprints
// for compiled programs.
//
// The constants in Lassen* are taken from the paper's §7 description of the
// Lassen supercomputer; they determine absolute numbers, while the *shape*
// of every experiment comes from the simulated mechanisms (contention,
// overlap, capacity).
//
// A copy's end time is its start — the ready time pushed past the
// availability of the ports and NICs it occupies — plus a class cost
// (occupancy, latency, replica overhead) that depends on source and
// destination only through their intra-/inter-node classification. A
// CopyPricer, for the runtime's nearest-valid-instance selection, splits
// the start into its destination terms, read once per copy, and its source
// terms, read per candidate, and prices each class once; max is exact, so
// every end it returns is the one Copy would commit.
package sim

// Params holds the cost-model constants of a simulated machine.
type Params struct {
	// PeakFlops is the peak double-precision FLOP/s of one leaf processor.
	PeakFlops float64
	// MemBandwidth is the local memory bandwidth of a leaf processor in
	// bytes/s; bandwidth-bound leaf kernels are limited by it.
	MemBandwidth float64
	// MemCapacity is the capacity of one leaf processor's local memory in
	// bytes. Exceeding it makes an execution report OOM.
	MemCapacity float64

	// IntraBW and IntraLatency describe links between leaf processors of the
	// same node (e.g. NVLink 2.0 between GPUs).
	IntraBW      float64
	IntraLatency float64

	// InterBW and InterLatency describe the per-node NIC (e.g. EDR
	// InfiniBand). All inter-node traffic of a node serializes through it.
	InterBW      float64
	InterLatency float64

	// SrcPenaltyBW, when non-zero, replaces InterBW for transfers whose
	// source instance resides in GPU framebuffer memory. It models the
	// Legion DMA shortcoming described in §7.1.2 (18 GB/s instead of 25).
	SrcPenaltyBW float64

	// ReplicaOverhead is a per-copy runtime overhead in seconds multiplied
	// by the number of valid replicas of the source region piece. It models
	// the Legion overhead of managing highly replicated regions that makes
	// MTTKRP fall off past 64 nodes (§7.2.2).
	ReplicaOverhead float64
}

const (
	// GiB is 2^30 bytes.
	GiB = 1024 * 1024 * 1024
	// GB is 10^9 bytes.
	GB = 1e9
)

// CPUCoreFlops is the peak double-precision throughput of one Power9 core.
const CPUCoreFlops = 18.5e9

// LassenCPU returns the cost model of one Lassen CPU socket as DISTAL
// models it (§7.1.1: "we model each CPU socket as an abstract DISTAL
// processor"): 20 cores per socket, of which 2 are reserved for the Legion
// runtime (4 per node).
func LassenCPU() Params {
	return Params{
		PeakFlops:       18 * CPUCoreFlops, // 18 worker cores per socket
		MemBandwidth:    120 * GB,
		MemCapacity:     128 * GiB,
		IntraBW:         90 * GB, // socket-to-socket within a node
		IntraLatency:    1e-6,
		InterBW:         25 * GB, // EDR InfiniBand
		InterLatency:    5e-6,
		ReplicaOverhead: 2e-6,
	}
}

// LassenCPUFullCores returns the per-socket CPU cost model with all 20
// cores computing, used for baselines that do not pay the runtime-core tax
// (COSMA, and the peak-utilization line).
func LassenCPUFullCores() Params {
	p := LassenCPU()
	p.PeakFlops = 20 * CPUCoreFlops
	return p
}

// LassenCPURanks returns the cost model of one MPI rank when a 40-core
// Lassen node is divided into ranksPerNode ranks (how ScaLAPACK and CTF run
// best, §7.1); every rank computes with its share of the cores.
func LassenCPURanks(ranksPerNode int) Params {
	p := LassenCPUFullCores()
	p.PeakFlops = 40 * CPUCoreFlops / float64(ranksPerNode)
	p.MemBandwidth = p.MemBandwidth * 2 / float64(ranksPerNode)
	p.MemCapacity = p.MemCapacity * 2 / float64(ranksPerNode)
	return p
}

// LassenGPU returns the cost model of one V100 GPU on Lassen.
func LassenGPU() Params {
	return Params{
		PeakFlops:       7.8e12, // V100 FP64
		MemBandwidth:    900 * GB,
		MemCapacity:     16 * GiB,
		IntraBW:         60 * GB, // NVLink 2.0
		IntraLatency:    1e-6,
		InterBW:         25 * GB,
		InterLatency:    5e-6,
		SrcPenaltyBW:    18 * GB, // Legion DMA from framebuffer (§7.1.2)
		ReplicaOverhead: 2e-6,
	}
}
