package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"commintent/internal/model"
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
// the generation. A waiter that does not see the flip parks on its node's
// gate for that generation, so the steady-state barrier performs no
// allocation, no mutex handoff chain, and no O(n) broadcast herd: wakeups
// are per tree node.
//
// Shape and wait follow one rule, read when the barrier is built (waitRule):
// with one P the tree is a single densely packed node and a waiter yields a
// bounded number of times before parking, because the release is one
// scheduler turn away; with more than one P the tree is radix 16 (node-
// grouped where placement says), slots sit a cache line apart, and a waiter
// parks at once — there every yield goes through the scheduler's global run
// queue lock, which both Ps then fight over.
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
// own release, and a waiter returns only after loading the flipped word or
// leaving the gate the release opened after it.
//
// A Barrier is safe for repeated use by the same fixed set of n goroutines;
// participant i must always pass me == i.
type Barrier struct {
	// flat and lslot lead the struct so the flat fast path's loads share
	// one cache line: with thousands of rank goroutines cycling through
	// Wait, the working set is cache-resident only if each call touches
	// the minimum number of distinct lines.
	flat   *barNode // the whole tree, when it is a single node
	lslot  []int    // slot index within the leaf for each rank
	spin   int      // Gosched yields before a waiter parks
	n      int
	leaves []*barNode // leaf node for each rank
	depth  int
	hier   bool // leaves grouped by topology node, not rank order
}

// barrierSpin bounds the one-P rule's Gosched spin before a waiter parks. A
// yield costs ~100ns there; the bound keeps worst-case busy work per waiter
// well under the cost of the park/unpark pair it avoids.
const barrierSpin = 64

// Process-wide barrier counters, surfaced through BarrierStats: the global
// winner adds one per generation, and a waiter one as it parks.
var barGenerations, barParks atomic.Int64

// BarrierStats reports the process-lifetime number of completed barrier
// generations and of waits that parked, over every barrier.
func BarrierStats() (generations, parks int64) {
	return barGenerations.Load(), barParks.Load()
}

// waitRule is the barrier's one reading of the host's parallelism: its tree
// fan-in (0 for a single node), the spacing of per-child slots in words, and
// the yields a waiter spends before parking.
type waitRule struct{ radix, stride, spin int }

// readRule reads GOMAXPROCS. With one P, yields pay: the releaser runs
// within a turn or two, and parking at once made the 256-rank allreduce
// ~35% slower. With more than one P, every yield takes the scheduler's
// global run-queue lock (65% of a two-P 256-rank allreduce's CPU was under
// gosched_m), so waiters park at once, the radix-16 tree keeps each
// release wave short, and slots a cache line apart keep parallel check-ins
// from false-sharing.
func readRule() waitRule {
	if runtime.GOMAXPROCS(0) == 1 {
		return waitRule{stride: 1, spin: barrierSpin}
	}
	return waitRule{radix: 16, stride: 8}
}

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
	pslot  int // this node's slot index in parent

	_    [64]byte
	word atomic.Uint64
	_    [56]byte
	// gate[g&1] holds generation g's parked waiters: armed (count 1) before
	// the flip that starts g, opened by the release that ends it. Two gates
	// because a fast rank can arrive for g+1, and park, between release(g)'s
	// flip and its Done. A gate is re-armed only at the flip that starts
	// g+2, inside release(g+1), which needs every child's arrival for g+1 —
	// and each of those happens after the g waiter from that child's subtree
	// has left Wait (on a leaf it is the waiter itself; higher up, the child
	// node's next winner arrives only after that waiter released the child).
	// So no Wait of g is ever in flight across its gate's re-arming, which
	// is what lets one WaitGroup per parity serve every generation.
	gate [2]sync.WaitGroup
	out  model.Time // generation result; published by the release flip
}

// newBarNode returns a node for k children with generation 0's gate armed.
func newBarNode(k, stride int) *barNode {
	nd := &barNode{slots: make([]model.Time, k*stride), stride: stride, nchild: k}
	nd.gate[0].Add(1)
	return nd
}

// NewBarrier creates a barrier for n participants, shaped by the wait rule.
func NewBarrier(n int) *Barrier {
	r := readRule()
	return r.build(n, r.radix)
}

// NewBarrierRadix creates a barrier with an explicit tree fan-in; radix >=
// n yields a single combining node. Exposed so tests can force the
// multi-level tree shape regardless of GOMAXPROCS.
func NewBarrierRadix(n, radix int) *Barrier {
	return readRule().build(n, max(radix, 2))
}

// build creates an n-participant barrier of the given fan-in (0 or >= n: one
// node) with the rule's slot stride and spin.
func (r waitRule) build(n, radix int) *Barrier {
	if n < 1 {
		panic("simnet: barrier size must be >= 1")
	}
	if radix == 0 || radix > n {
		radix = n
	}
	b := &Barrier{n: n, spin: r.spin, leaves: make([]*barNode, n), lslot: make([]int, n)}
	level := make([]*barNode, 0, (n+radix-1)/radix)
	for i := 0; i < n; i += radix {
		nd := newBarNode(min(radix, n-i), r.stride)
		for j := 0; j < nd.nchild; j++ {
			b.leaves[i+j] = nd
			b.lslot[i+j] = j * r.stride
		}
		level = append(level, nd)
	}
	b.buildUpper(level, radix, r.stride)
	return b
}

// NewBarrierTopo creates a barrier whose first combining level is grouped by
// topology node: ranks sharing a node check in at a node-local flat phase
// (the sense-reversing generation word of their shared leaf) and only the
// per-node winners — the "leaders" — feed the radix tree above, so a
// 64k-rank world does not collapse onto one combining root and release
// waves stay node-local. nodeOf maps a rank to its node id; nil means no
// topology. Where the wait rule builds a single node (one P) this is
// NewBarrier, so the hierarchical shape is strictly an arrangement of the
// existing combining tree, never a change to the max-fold result.
func NewBarrierTopo(n int, nodeOf func(rank int) int) *Barrier {
	r := readRule()
	if nodeOf == nil || n < 2 || r.radix == 0 {
		return r.build(n, r.radix)
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
		return r.build(n, r.radix)
	}
	b := &Barrier{n: n, spin: r.spin, leaves: make([]*barNode, n), lslot: make([]int, n), hier: true}
	level := make([]*barNode, 0, len(groups))
	for _, g := range groups {
		nd := newBarNode(len(g), r.stride)
		for j, rank := range g {
			b.leaves[rank] = nd
			b.lslot[rank] = j * r.stride
		}
		level = append(level, nd)
	}
	b.buildUpper(level, r.radix, r.stride)
	return b
}

// buildUpper stacks radix-wide combining levels over the leaf nodes until a
// single root remains, and installs the flat fast path when the tree is one
// node.
func (b *Barrier) buildUpper(level []*barNode, radix, stride int) {
	b.depth = 1
	for len(level) > 1 {
		next := level[:0:0]
		for i := 0; i < len(level); i += radix {
			nd := newBarNode(min(radix, len(level)-i), stride)
			for j := 0; j < nd.nchild; j++ {
				level[i+j].parent = nd
				level[i+j].pslot = j * stride
			}
			next = append(next, nd)
		}
		level = next
		b.depth++
	}
	if b.leaves[0].parent == nil {
		b.flat = b.leaves[0]
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
func (b *Barrier) WaitStep(me int, myV model.Time, step func()) model.Time {
	if nd := b.flat; nd != nil {
		// Flat barrier: publish the clock with one plain slot store — the
		// check-in fetch-add below orders it for the winner's fold — and
		// wait inline: with one P, one yield almost always suffices, so the
		// common waiter path is store, add, load, yield, load (a call to
		// waitRelease per wait costs the 256-rank barrier ~7% there).
		nd.slots[b.lslot[me]] = myV
		s := nd.word.Add(1)
		if int(s&0xffffffff) < nd.nchild {
			g := uint32(s >> 32)
			for i := 0; i < b.spin; i++ {
				if uint32(nd.word.Load()>>32) != g {
					return nd.out
				}
				runtime.Gosched()
			}
			nd.park(g)
			return nd.out
		}
		v := nd.fold(myV)
		if step != nil {
			step()
		}
		barGenerations.Add(1)
		nd.release(v)
		return v
	}
	nd := b.leaves[me]
	slot := b.lslot[me]
	// The winner path can hold at most one won node per level.
	won := make([]*barNode, 0, 8)
	v := myV
	for {
		nd.slots[slot] = v
		s := nd.word.Add(1)
		if int(s&0xffffffff) < nd.nchild {
			nd.waitRelease(uint32(s>>32), b.spin)
			v = nd.out
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
	}
	// Release every node this participant won, top-down, with the global
	// maximum (the global winner exits the loop without waiting anywhere).
	for i := len(won) - 1; i >= 0; i-- {
		won[i].release(v)
	}
	return v
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

// release publishes the generation result, arms the next generation's gate,
// flips the node's generation and zeroes its arrival count in one atomic
// add, and opens the finished generation's gate.
func (nd *barNode) release(v model.Time) {
	nd.out = v
	g := uint32(nd.word.Load() >> 32)
	nd.gate[(g+1)&1].Add(1)
	nd.word.Add(1<<32 - uint64(nd.nchild))
	nd.gate[g&1].Done()
}

// waitRelease waits for the node's generation g to complete: up to spin
// Gosched yields watching the word, then a park on the generation's gate.
func (nd *barNode) waitRelease(g uint32, spin int) {
	for i := 0; i < spin; i++ {
		if uint32(nd.word.Load()>>32) != g {
			return
		}
		runtime.Gosched()
	}
	nd.park(g)
}

// park sleeps on generation g's gate unless g has already completed.
func (nd *barNode) park(g uint32) {
	if uint32(nd.word.Load()>>32) != g {
		return
	}
	barParks.Add(1)
	nd.gate[g&1].Wait()
}
