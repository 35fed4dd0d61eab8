package simnet

import (
	"runtime"
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
// the generation. Waiters spin with runtime.Gosched for a bounded number of
// yields — on an oversubscribed scheduler the release almost always lands
// within a yield or two — and only then park on a lazily-installed per-node
// channel, so the steady-state barrier performs no allocation, no mutex
// handoff chain, and no O(n) broadcast herd: wakeups are point-to-point per
// tree node.
//
// The radix adapts to the runtime: with real hardware parallelism the tree
// keeps each release wave O(radix) so waiters spin on their own node's
// generation word rather than one global line; with GOMAXPROCS=1 the tree
// degenerates to a single node, because point-to-point release waves only
// pay for themselves when waves can actually overlap (measured on a
// single-P box, a dissemination barrier is ~3x slower than the flat
// combining node — every hop is a scheduler round trip).
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
	// flat and lslot lead the struct so the flat fast path's loads share
	// one cache line: with thousands of rank goroutines cycling through
	// Wait, the working set is cache-resident only if each call touches
	// the minimum number of distinct lines.
	flat   *barNode // the whole tree, when it is a single node
	lslot  []int    // slot index within the leaf for each rank
	n      int
	leaves []*barNode // leaf node for each rank
	depth  int
	hier   bool // leaves grouped by topology node, not rank order
}

// barrierSpin bounds the Gosched spin phase before a waiter parks. A yield
// costs ~100ns; the bound keeps worst-case busy work per waiter well under
// the cost of the park/unpark pair it avoids.
var barrierSpin = 64

// barGen is a parked-waiter registration for one generation of one node.
type barGen struct {
	g  uint32
	ch chan struct{}
}

// barNode's state word: low 32 bits arrival count, high 32 bits generation.
// An arrival is one fetch-add of 1 (returning both its arrival position and
// the generation it belongs to); the winner's release is one fetch-add of
// 1<<32 - nchild (flipping the generation and zeroing the count together).
// The generation comparison is modular, so 32-bit wraparound is harmless:
// parked registrations never span even two generations.
type barNode struct {
	// slots holds one virtual-time slot per child at a stride chosen for
	// the runtime: one cache line apart when children write in parallel,
	// densely packed when GOMAXPROCS rules parallel writes out (padding
	// then only inflates the winner's fold footprint).
	slots  []model.Time
	stride int
	nchild int
	parent *barNode
	pslot  int // this node's slot index in parent

	_    [64]byte
	word atomic.Uint64
	_    [56]byte
	// park holds the waiters' lazily-installed wakeup channel for the
	// generation currently completing, one slot per generation parity; nil
	// or stale when nobody parked. Two slots because a fast rank can park
	// for generation g+1 between release(g)'s flip and its look at the
	// record: were there one slot, that parker would replace the
	// generation-g record and release would find nothing to close, leaving
	// g's sleepers asleep for ever. Nobody can park for g+2, the next user
	// of g's slot, before all of them have woken and arrived at g+1.
	park [2]atomic.Pointer[barGen]
	out  model.Time // generation result; published by the release flip
}

// slotStride picks the spacing of per-child slots: a cache line (8 words)
// under real parallelism, dense otherwise.
func slotStride() int {
	if runtime.GOMAXPROCS(0) <= 2 {
		return 1
	}
	return 8
}

// barrierRadix picks the tree fan-in: wide (flat) when the scheduler has no
// real parallelism or the world is small, 16 otherwise.
func barrierRadix(n int) int {
	if n <= 16 || runtime.GOMAXPROCS(0) <= 2 {
		return n
	}
	return 16
}

// NewBarrier creates a barrier for n participants with an automatically
// chosen tree radix.
func NewBarrier(n int) *Barrier {
	return NewBarrierRadix(n, barrierRadix(n))
}

// NewBarrierRadix creates a barrier with an explicit tree fan-in; radix >=
// n yields a single combining node. Exposed so tests can force the
// multi-level tree shape regardless of GOMAXPROCS.
func NewBarrierRadix(n, radix int) *Barrier {
	if n < 1 {
		panic("simnet: barrier size must be >= 1")
	}
	if radix < 2 {
		radix = 2
	}
	stride := slotStride()
	b := &Barrier{n: n, leaves: make([]*barNode, n), lslot: make([]int, n)}
	level := make([]*barNode, 0, (n+radix-1)/radix)
	for i := 0; i < n; i += radix {
		k := min(radix, n-i)
		nd := &barNode{slots: make([]model.Time, k*stride), stride: stride, nchild: k}
		for j := 0; j < k; j++ {
			b.leaves[i+j] = nd
			b.lslot[i+j] = j * stride
		}
		level = append(level, nd)
	}
	b.buildUpper(level, radix, stride)
	return b
}

// NewBarrierTopo creates a barrier whose first combining level is grouped by
// topology node: ranks sharing a node check in at a node-local flat phase
// (the sense-reversing generation word of their shared leaf) and only the
// per-node winners — the "leaders" — feed the radix tree above, so a
// 64k-rank world does not collapse onto one combining root and release
// waves stay node-local. nodeOf maps a rank to its node id; nil means no
// topology. On a scheduler without real parallelism the tree degenerates to
// the flat single node exactly like NewBarrier — point-to-point waves only
// pay for themselves when they can overlap — so the hierarchical shape is
// strictly an arrangement of the existing combining tree, never a change to
// the max-fold result.
func NewBarrierTopo(n int, nodeOf func(rank int) int) *Barrier {
	if nodeOf == nil || n < 2 || runtime.GOMAXPROCS(0) <= 2 {
		return NewBarrier(n)
	}
	// Group ranks by node, preserving first-seen node order.
	idx := make(map[int]int)
	var groups [][]int
	for r := 0; r < n; r++ {
		nid := nodeOf(r)
		gi, ok := idx[nid]
		if !ok {
			gi = len(groups)
			idx[nid] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], r)
	}
	if len(groups) <= 1 || len(groups) == n {
		// One node, or one rank per node: hierarchy adds nothing.
		return NewBarrier(n)
	}
	stride := slotStride()
	b := &Barrier{n: n, leaves: make([]*barNode, n), lslot: make([]int, n), hier: true}
	level := make([]*barNode, 0, len(groups))
	for _, g := range groups {
		nd := &barNode{slots: make([]model.Time, len(g)*stride), stride: stride, nchild: len(g)}
		for j, r := range g {
			b.leaves[r] = nd
			b.lslot[r] = j * stride
		}
		level = append(level, nd)
	}
	b.buildUpper(level, barrierRadix(len(level)), stride)
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
			k := min(radix, len(level)-i)
			nd := &barNode{slots: make([]model.Time, k*stride), stride: stride, nchild: k}
			for j := 0; j < k; j++ {
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
		// Flat barrier (the common shape on a scheduler without real
		// parallelism): publish the clock with one plain slot store — the
		// check-in fetch-add below orders it for the winner's fold — and
		// spin inline; one yield almost always suffices, so the common
		// waiter path is store, add, load, yield, load.
		nd.slots[b.lslot[me]] = myV
		s := nd.word.Add(1)
		if int(s&0xffffffff) < nd.nchild {
			g := uint32(s >> 32)
			for i := 0; i < barrierSpin; i++ {
				if uint32(nd.word.Load()>>32) != g {
					return nd.out
				}
				runtime.Gosched()
			}
			nd.parkWait(g)
			return nd.out
		}
		v := nd.fold(myV)
		if step != nil {
			step()
		}
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
			nd.waitRelease(uint32(s >> 32))
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

// release publishes the generation result, then flips the node's generation
// and zeroes its arrival count in one atomic add, waking any parked waiters
// point-to-point.
func (nd *barNode) release(v model.Time) {
	nd.out = v
	s := nd.word.Add(1<<32 - uint64(nd.nchild))
	nd.wakeParked(uint32(s>>32) - 1)
}

// wakeParked wakes the waiters parked for generation g, which the caller
// has just flipped past. Waiter parking and that flip are both sequentially
// consistent, so either the parker's re-check sees the flip or this load
// sees the parker's registration — never neither.
func (nd *barNode) wakeParked(g uint32) {
	if p := nd.park[g&1].Load(); p != nil && p.g == g {
		close(p.ch)
	}
}

// waitRelease waits for the node's generation g to complete: a bounded
// Gosched spin, then a parked wait on a lazily-installed channel shared by
// all of this node's parked waiters.
func (nd *barNode) waitRelease(g uint32) {
	for i := 0; i < barrierSpin; i++ {
		if uint32(nd.word.Load()>>32) != g {
			return
		}
		runtime.Gosched()
	}
	nd.parkWait(g)
}

// parkWait is the slow tail of waitRelease: register on (or adopt) the
// node's parked-waiter channel for generation g and sleep until release.
func (nd *barNode) parkWait(g uint32) {
	park := &nd.park[g&1]
	for {
		p := park.Load()
		if p != nil && p.g == g {
			if uint32(nd.word.Load()>>32) != g {
				return
			}
			<-p.ch
			return
		}
		if uint32(nd.word.Load()>>32) != g {
			return
		}
		np := &barGen{g: g, ch: make(chan struct{})}
		if park.CompareAndSwap(p, np) {
			if uint32(nd.word.Load()>>32) != g {
				// The release may have run before our registration was
				// visible; the channel is then never closed, so leave.
				return
			}
			<-np.ch
			return
		}
	}
}
