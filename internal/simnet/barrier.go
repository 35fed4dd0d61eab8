package simnet

import (
	"sync/atomic"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// Barrier is a reusable rendezvous that also max-reduces the participants'
// virtual clocks: every rank enters with its current virtual time and leaves
// with the maximum over all participants. The caller then adds whatever the
// cost model charges for the barrier itself.
//
// The implementation is a combining tree (Mellor-Crummey & Scott style with
// dynamic winners): ranks check in at a leaf node by writing their virtual
// time into a private slot and bumping the node's arrival word; the last
// arriver at each node ("winner") folds the node's slots into a subtree
// maximum and carries it one level up, and the global winner releases the
// tree top-down by flipping each node's generation. Generation and arrival
// count share one atomic word, so a rank's check-in is a single fetch-add
// that simultaneously reads the generation it must wait out, and the
// winner's release is a single fetch-add that resets the count and flips
// the generation. A waiter that does not see the flip blocks on its
// participant's gate (transport.Gate: in a running world it yields to its
// rank's run loop). A node records which participant arrived at each child
// slot, and its release wakes those gates only, so the steady-state barrier
// performs no allocation and no O(n) broadcast herd: a release readies that
// node's waiters, not the world. The tree is radix 16 (node-grouped where
// placement says) at every P.
//
// A generation may carry a completion step (WaitStep): the global winner —
// the participant whose arrival completes the root node, whatever the tree
// shape — runs it after the fold and before the release flip, so one wave
// is a whole "everyone publishes, one computes, everyone reads" exchange.
// The happens-before chain is the one the clock fold already relies on:
// a participant's stores before its call precede its arrival fetch-add;
// arrivals on a node are ordered by that word, and a node's winner arrives
// at the parent only afterwards, so the global winner's step observes every
// participant's stores; the step's own stores precede the root's release
// flip, each released winner flips the nodes it won only after seeing its
// own release, and a waiter returns only after loading the flipped word.
//
// A Barrier is safe for repeated use by the same fixed set of n goroutines;
// participant i must always pass me == i.
type Barrier struct {
	n      int
	leaves []*barNode // leaf node for each participant
	lslot  []int      // child slot within the leaf for each participant
	gates  []transport.Gate
	depth  int
	hier   bool // leaves grouped by topology node, not rank order
}

var barGenerations, barParks atomic.Int64

// BarrierStats reports the process-lifetime number of completed barrier
// generations and of blocked waits a release woke, over every barrier.
func BarrierStats() (generations, parks int64) {
	return barGenerations.Load(), barParks.Load()
}

// Tree fan-in, and an upper node's slot spacing in words: a cache line, as
// winners from every run loop arrive there. A leaf's neighbouring ranks
// share a loop, so its slots are packed.
const barRadix, barStride = 16, 8

// barNode's state word: low 32 bits arrival count, high 32 bits generation.
// An arrival is one fetch-add of 1 (returning both its arrival position and
// the generation it belongs to); the winner's release is one fetch-add of
// 1<<32 - nchild (flipping the generation and zeroing the count together).
// The generation comparison is modular, so 32-bit wraparound is harmless.
type barNode struct {
	// slots holds one virtual-time slot per child, stride words apart.
	slots  []model.Time
	stride int
	nchild int
	parent *barNode
	pslot  int // this node's child slot in parent

	// who[j]: the participant at child slot j, whose gate the release
	// wakes; fixed on a leaf, set by the arriving winner on an upper node.
	who []atomic.Int32

	_    [64]byte
	word atomic.Uint64
	_    [56]byte
	out  model.Time // generation result; published by the release flip
}

func newBarNode(k, stride int) *barNode {
	return &barNode{slots: make([]model.Time, k*stride), stride: stride, nchild: k, who: make([]atomic.Int32, k)}
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier { return build(n, barRadix) }

// NewBarrierRadix creates a barrier with an explicit tree fan-in; radix >=
// n yields a single combining node.
func NewBarrierRadix(n, radix int) *Barrier { return build(n, max(radix, 2)) }

// build creates an n-participant barrier of fan-in radix (>= n: one node).
func build(n, radix int) *Barrier {
	if n < 1 {
		panic("simnet: barrier size must be >= 1")
	}
	radix = min(radix, n)
	b := newBarrier(n)
	level := make([]*barNode, 0, (n+radix-1)/radix)
	for i := 0; i < n; i += radix {
		nd := newBarNode(min(radix, n-i), 1)
		for j := 0; j < nd.nchild; j++ {
			b.leaf(i+j, nd, j)
		}
		level = append(level, nd)
	}
	b.buildUpper(level, radix)
	return b
}

func newBarrier(n int) *Barrier {
	return &Barrier{n: n, leaves: make([]*barNode, n), lslot: make([]int, n), gates: make([]transport.Gate, n)}
}

// leaf seats participant p at child slot j of leaf nd.
func (b *Barrier) leaf(p int, nd *barNode, j int) {
	b.leaves[p], b.lslot[p] = nd, j
	nd.who[j].Store(int32(p))
}

// Bind binds participant i's gate to task(i), the task of the rank taking
// part as i. Call it before the barrier is used.
func (b *Barrier) Bind(task func(participant int) *transport.Task) {
	for i := range b.gates {
		b.gates[i].Bind(task(i))
	}
}

// NewBarrierTopo creates a barrier whose first combining level is grouped by
// topology node: ranks sharing a node check in at a node-local flat phase
// (the sense-reversing generation word of their shared leaf) and only the
// per-node winners — the "leaders" — feed the radix tree above, so a
// 64k-rank world does not collapse onto one combining root and release
// waves stay node-local. nodeOf maps a rank to its node id; nil means no
// topology. The hierarchical shape is strictly an arrangement of the
// combining tree, never a change to the max-fold result.
func NewBarrierTopo(n int, nodeOf func(rank int) int) *Barrier {
	if nodeOf == nil || n < 2 {
		return NewBarrier(n)
	}
	// Group ranks by node, preserving first-seen node order.
	idx := make(map[int]int)
	var groups [][]int
	for rank := 0; rank < n; rank++ {
		nid := nodeOf(rank)
		gi, ok := idx[nid]
		if !ok {
			gi = len(groups)
			idx[nid] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], rank)
	}
	if len(groups) <= 1 || len(groups) == n {
		// One node, or one rank per node: hierarchy adds nothing.
		return NewBarrier(n)
	}
	b := newBarrier(n)
	b.hier = true
	level := make([]*barNode, 0, len(groups))
	for _, g := range groups {
		nd := newBarNode(len(g), 1)
		for j, rank := range g {
			b.leaf(rank, nd, j)
		}
		level = append(level, nd)
	}
	b.buildUpper(level, barRadix)
	return b
}

// buildUpper stacks radix-wide combining levels over the leaf nodes until a
// single root remains.
func (b *Barrier) buildUpper(level []*barNode, radix int) {
	b.depth = 1
	for len(level) > 1 {
		next := level[:0:0]
		for i := 0; i < len(level); i += radix {
			nd := newBarNode(min(radix, len(level)-i), barStride)
			for j := 0; j < nd.nchild; j++ {
				level[i+j].parent = nd
				level[i+j].pslot = j
			}
			next = append(next, nd)
		}
		level = next
		b.depth++
	}
}

// Hierarchical reports whether the barrier's first combining level is
// grouped by topology node.
func (b *Barrier) Hierarchical() bool { return b.hier }

// Size reports the number of participants.
func (b *Barrier) Size() int { return b.n }

// Wait blocks until all n participants have called Wait with this
// generation, then returns the maximum virtual time over all of them.
// me identifies the caller (0 <= me < Size) and must be unique per
// participant.
func (b *Barrier) Wait(me int, myV model.Time) model.Time {
	return b.WaitStep(me, myV, nil)
}

// WaitStep is Wait with a completion step: once every participant has
// arrived, exactly one of them — whichever arrived last — calls step before
// anyone is released (see the type comment for what that orders). Which
// participant runs it is a scheduling accident: step must depend only on
// state the participants published, every participant of a generation must
// pass a step that does the same thing (nil for none), and step must not
// call into the barrier.
//
// The global winner releases the tree and then, on a run loop, lets the
// ranks it readied there run before it goes on: at one P a generation
// hands the loop on in arrival order.
func (b *Barrier) WaitStep(me int, myV model.Time, step func()) model.Time {
	nd, slot := b.leaves[me], b.lslot[me]
	// The winner path can hold at most one won node per level.
	won := make([]*barNode, 0, 8)
	v := myV
	for {
		nd.slots[slot*nd.stride] = v
		s := nd.word.Add(1)
		if int(s&0xffffffff) < nd.nchild {
			v = b.await(me, nd, uint32(s>>32))
			break
		}
		// Winner: fold the subtree maximum and carry it up. All slots for
		// this generation are in place (the word's last Add synchronises
		// with every child's slot write), and no next-generation arrival
		// can touch them until this node is released.
		v = nd.fold(v)
		won = append(won, nd)
		if nd.parent == nil {
			if step != nil {
				step()
			}
			barGenerations.Add(1)
			break
		}
		slot = nd.pslot
		nd = nd.parent
		nd.who[slot].Store(int32(me))
	}
	// Release every node this participant won, top-down, with the global
	// maximum (the global winner exits the loop without waiting anywhere).
	for i := len(won) - 1; i >= 0; i-- {
		b.release(won[i], v)
	}
	if len(won) == b.depth { // the global winner: it won a node at every level
		b.gates[me].Yield()
	}
	return v
}

// await waits on me's gate for the node's generation g to complete and
// returns its result.
func (b *Barrier) await(me int, nd *barNode, g uint32) model.Time {
	b.gates[me].Wait(func() bool { return uint32(nd.word.Load()>>32) != g }, 0)
	return nd.out
}

// fold returns the maximum of v and the node's slot values.
func (nd *barNode) fold(v model.Time) model.Time {
	for i := 0; i < len(nd.slots); i += nd.stride {
		if nd.slots[i] > v {
			v = nd.slots[i]
		}
	}
	return v
}

// release publishes the generation result, flips the node's generation and
// zeroes its arrival count in one atomic add, and wakes the node's waiters.
func (b *Barrier) release(nd *barNode, v model.Time) {
	nd.out = v
	nd.word.Add(1<<32 - uint64(nd.nchild))
	b.wake(nd)
}

// wake wakes the participant recorded at each of the node's child slots. A
// slot an arrival for the next generation has already rewritten wakes that
// participant for nothing: the one it replaced has left, since the newcomer
// could arrive only after its whole subtree, that waiter included, had come
// round again.
func (b *Barrier) wake(nd *barNode) {
	var w transport.Waker
	for j := range nd.who {
		w.Wake(&b.gates[nd.who[j].Load()])
	}
	if woke := w.Flush(); woke != 0 {
		barParks.Add(int64(woke))
	}
}
