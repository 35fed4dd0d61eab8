// Package coll is the collective algorithm-selection layer: one decision
// function that maps (collective kind, communicator size, payload bytes) to
// the data-movement algorithm the runtime should execute.
//
// The selection governs *wall-clock* data movement only. Virtual time is
// owned by the cost model's canonical schedule (see internal/mpi's replay),
// so switching algorithms — by size, by rank count, or by the Force test
// hook — never changes a simulation's virtual-time results. This is the
// pMR/MDMP division of labour: the runtime, not the calling code, picks the
// transport per message, and the abstraction boundary guarantees the choice
// is observationally pure.
package coll

import (
	"runtime"
	"sync/atomic"
)

// Kind identifies a collective operation family.
type Kind uint8

const (
	Bcast Kind = iota
	Reduce
	Allreduce
	Gather
	Scatter
	Allgather
	Alltoall
	NKinds // number of collective kinds, for sizing per-kind tables
)

func (k Kind) String() string {
	switch k {
	case Bcast:
		return "bcast"
	case Reduce:
		return "reduce"
	case Allreduce:
		return "allreduce"
	case Gather:
		return "gather"
	case Scatter:
		return "scatter"
	case Allgather:
		return "allgather"
	case Alltoall:
		return "alltoall"
	default:
		return "kind?"
	}
}

// Algo identifies a data-movement strategy.
type Algo uint8

const (
	// Direct: the collective's owner step moves bytes between rank buffers
	// through the shared address space — no messages at all. Optimal whenever the
	// scheduler has no real parallelism (every message round trip is a
	// scheduler dispatch that moves no extra data).
	Direct Algo = iota
	// Linear: root exchanges with every rank in rank order.
	Linear
	// Binomial: classic binomial tree, log2(n) rounds.
	Binomial
	// Ring: n-1 neighbour rounds moving 1/n of the payload each; the
	// bandwidth-optimal shape for large allreduce/allgather.
	Ring
	// RecDouble: recursive doubling, log2(n) pairwise exchange rounds.
	RecDouble
	// Pairwise: XOR-schedule pairwise exchange (alltoall).
	Pairwise
	// HierAllreduce: node-leader allreduce — intra-node reduce into the
	// leader, inter-leader exchange (recursive doubling when the node
	// count is a power of two, binomial reduce+bcast otherwise), intra-node
	// bcast. Wire traffic shrinks from O(n log n) to O(nodes log nodes).
	HierAllreduce
	// HierTree: node-leader tree for rooted collectives — the inter-leader
	// phase moves one packed message per node, the intra-node phase moves
	// bytes through the shared address space.
	HierTree
	// TorusRing: the ring schedules walked in topology-neighbour order
	// instead of comm-rank order, so every ring step is a near-neighbour
	// hop on the installed topology rather than a full-diameter crossing.
	TorusRing
	NAlgos
)

func (a Algo) String() string {
	switch a {
	case Direct:
		return "direct"
	case Linear:
		return "linear"
	case Binomial:
		return "binomial"
	case Ring:
		return "ring"
	case RecDouble:
		return "recdouble"
	case Pairwise:
		return "pairwise"
	case HierAllreduce:
		return "hier-allreduce"
	case HierTree:
		return "hier-tree"
	case TorusRing:
		return "torus-ring"
	default:
		return "algo?"
	}
}

// Hierarchical reports whether a is one of the topology-aware schedules.
func (a Algo) Hierarchical() bool {
	return a == HierAllreduce || a == HierTree || a == TorusRing
}

// Size thresholds for the message-passing regime (GOMAXPROCS > 2). Below
// smallMsg a collective is latency-bound and trees win; above largeMsg it
// is bandwidth-bound and ring/segmented schedules win.
const (
	smallMsg = 1 << 10 // 1 KiB
	largeMsg = 32 << 10
)

// Topo describes the communicator's placement on the machine topology —
// the selection inputs the hierarchical schedules key on. The zero value
// means "no topology": ChooseTopo then equals Choose exactly.
type Topo struct {
	Nodes        int // distinct nodes hosting the communicator's ranks
	RanksPerNode int // largest number of ranks co-located on one node
	Diameter     int // maximum hop distance between any two of those nodes
}

// ringDiameter is the hop diameter at which even a one-rank-per-node
// placement prefers topology-neighbour rings: beyond it a rank-order ring
// step averages enough hops that walking the torus order pays.
const ringDiameter = 4

// Hierarchical reports whether the placement has node structure worth a
// two-level schedule: several ranks share a node and there is more than
// one node.
func (t Topo) Hierarchical() bool { return t.RanksPerNode > 1 && t.Nodes > 1 }

// wideRing reports whether ring schedules should walk topology order.
func (t Topo) wideRing() bool {
	return t.Nodes > 1 && (t.RanksPerNode > 1 || t.Diameter >= ringDiameter)
}

// Class compresses the placement into a small stable id for keying tuner
// observations: 0 flat, 1 node-hierarchical, 2 long-diameter only, 3 both.
// Hierarchical and flat observations of the same (kind, comm, size-class)
// must not pollute each other's EWMAs — they measure different schedules.
func (t Topo) Class() int {
	c := 0
	if t.Hierarchical() {
		c |= 1
	}
	if t.Diameter >= ringDiameter {
		c |= 2
	}
	return c
}

// forced holds Algo+1 when a test has pinned the selection (0 = unforced).
var forced atomic.Uint32

// Force pins every subsequent Choose to a, returning a restore func.
// Test-only: selections are validated per kind, so forcing an algorithm a
// kind cannot execute falls back to that kind's default.
func Force(a Algo) (restore func()) {
	forced.Store(uint32(a) + 1)
	return func() { forced.Store(0) }
}

// Forced reports the currently forced algorithm, if any.
func Forced() (Algo, bool) {
	f := forced.Load()
	if f == 0 {
		return 0, false
	}
	return Algo(f - 1), true
}

// Choose picks the data-movement algorithm for a collective of kind k over
// n ranks with bytes of payload per rank, with no topology information.
// The choice only affects how real bytes move; the virtual-time schedule is
// canonical regardless.
func Choose(k Kind, n, bytes int) Algo {
	return ChooseTopo(k, n, bytes, Topo{})
}

// ChooseTopo is Choose with the communicator's machine placement folded in:
// a hierarchical placement (several ranks per node) steers rooted trees and
// allreduce onto the node-leader schedules, and a wide placement steers the
// ring schedules onto topology-neighbour order. A zero Topo reproduces the
// flat tables bit-for-bit, so profiles without a topology — and every
// existing golden — are untouched.
func ChooseTopo(k Kind, n, bytes int, tp Topo) Algo {
	if f := forced.Load(); f != 0 {
		if a := Algo(f - 1); supportsTopo(k, a, n, tp) {
			return a
		}
	}
	// Without real hardware parallelism every message is a scheduler
	// round trip that moves no more data than a memcpy would, so the
	// owner-driven direct move wins at every size.
	if runtime.GOMAXPROCS(0) <= 2 || n < 4 {
		return Direct
	}
	hier := tp.Hierarchical() && n >= 8
	switch k {
	case Bcast:
		if hier {
			return HierTree
		}
		if n < 8 {
			return Linear
		}
		return Binomial
	case Reduce:
		if hier {
			return HierTree
		}
		if n < 8 {
			return Linear
		}
		return Binomial
	case Allreduce:
		if bytes >= largeMsg {
			if tp.wideRing() {
				return TorusRing
			}
			return Ring
		}
		if hier {
			return HierAllreduce
		}
		if isPow2(n) {
			return RecDouble
		}
		return Binomial // reduce+bcast composition
	case Gather, Scatter:
		if hier && bytes <= largeMsg {
			return HierTree
		}
		if n < 8 || bytes > largeMsg {
			return Linear
		}
		return Binomial
	case Allgather:
		if bytes*n >= largeMsg {
			if tp.wideRing() {
				return TorusRing
			}
			return Ring
		}
		if hier {
			return HierTree
		}
		return Binomial // gather+bcast composition
	case Alltoall:
		if isPow2(n) {
			return Pairwise
		}
		if tp.wideRing() {
			return TorusRing
		}
		return Ring
	}
	return Direct
}

// Feedback carries live observations from the managed runtime's tuner into
// the selection. All fields derive from virtual-time-deterministic
// observables, so tuned choices replay bit-identically for a given seed.
type Feedback struct {
	// LatencyShare is the fraction of the observed collective duration
	// not explained by pure bandwidth (wire time). Negative means "no
	// observation yet". High values mean latency/overhead-bound; low
	// values mean bandwidth-bound.
	LatencyShare float64
	// NSPerByte is the EWMA of observed virtual ns per payload byte for
	// this decision slot (0 until observed).
	NSPerByte float64
	// QueueHighWater is the observer's outstanding-request high-watermark
	// at decision time; a deep queue favours fewer, larger messages.
	QueueHighWater int
}

// ChooseTuned is Choose with live feedback folded in: the observation
// shifts the payload's *effective* size regime before the static tables
// apply. A latency-bound observation (most of the duration is overhead the
// bytes don't explain) pushes the choice toward the small-message tree
// regime; a bandwidth-bound one pushes toward the large-message
// ring/pipeline regime. With no observation (LatencyShare < 0) it is
// exactly Choose. The result always passes supports(), so a tuned choice
// is never one the mover layer cannot execute.
func ChooseTuned(k Kind, n, bytes int, fb Feedback) Algo {
	return ChooseTunedTopo(k, n, bytes, Topo{}, fb)
}

// ChooseTunedTopo is ChooseTuned with the communicator's placement folded
// in, exactly as ChooseTopo refines Choose.
func ChooseTunedTopo(k Kind, n, bytes int, tp Topo, fb Feedback) Algo {
	eff := bytes
	switch {
	case fb.LatencyShare < 0:
		// No observation: static tables.
	case fb.LatencyShare > 0.5:
		// Latency-bound: behave as if the payload were smaller, steering
		// into the tree regime that minimises message rounds.
		eff = bytes / 4
	case fb.LatencyShare < 0.1:
		// Bandwidth-bound: behave as if the payload were larger, steering
		// into the ring regime that minimises bytes-on-the-wire.
		eff = bytes * 4
	}
	if fb.QueueHighWater > 64 && eff > smallMsg {
		// A deep outstanding-request queue means injection overhead is
		// piling up; prefer schedules with fewer concurrent messages.
		eff = smallMsg
	}
	a := ChooseTopo(k, n, eff, tp)
	if !supportsTopo(k, a, n, tp) {
		a = ChooseTopo(k, n, bytes, tp)
	}
	return a
}

// supports reports whether kind k has an executable mover for algorithm a
// at communicator size n with no topology installed.
func supports(k Kind, a Algo, n int) bool {
	return supportsTopo(k, a, n, Topo{})
}

// supportsTopo reports whether kind k has an executable mover for algorithm
// a at communicator size n on placement tp. The hierarchical schedules
// require genuine node structure (so forcing them on a flat profile falls
// back to the flat tables, keeping flat-profile goldens pinned), and the
// topology rings require more than one node to order.
func supportsTopo(k Kind, a Algo, n int, tp Topo) bool {
	if a == Direct || a == Linear {
		return true
	}
	if a.Hierarchical() {
		switch a {
		case HierAllreduce:
			return k == Allreduce && tp.Hierarchical()
		case HierTree:
			switch k {
			case Bcast, Reduce, Gather, Scatter, Allgather:
				return tp.Hierarchical()
			}
			return false
		case TorusRing:
			switch k {
			case Allreduce, Allgather, Alltoall:
				return tp.Nodes > 1
			}
			return false
		}
	}
	switch k {
	case Bcast, Reduce, Gather, Scatter:
		return a == Binomial
	case Allreduce:
		return a == Binomial || a == Ring || (a == RecDouble && isPow2(n))
	case Allgather:
		return a == Binomial || a == Ring
	case Alltoall:
		return a == Ring || (a == Pairwise && isPow2(n))
	}
	return false
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
