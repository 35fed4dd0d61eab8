package mpi

import (
	"sync"

	"commintent/internal/coll"
	"commintent/internal/model"
	"commintent/internal/transport"
)

// Hierarchical movers: the topology-aware data-movement schedules selected
// when the profile places several ranks per node (internal/coll's
// HierAllreduce/HierTree) or spreads the communicator across a wide machine
// (TorusRing). Like every mover they run strictly after the rendezvous has
// released, are clockless, and move only real bytes — the canonical
// virtual-time replay has already happened, so a hierarchical run and a flat
// run of the same collective produce bit-identical virtual results.
//
// The two-level shape mirrors production MPI node-leader collectives: the
// first member of each node is its leader; intra-node movement goes through
// the shared address space exactly like moveDirect (the published wire
// views stand in for an on-node shared-memory segment); only leaders touch
// the wire, one packed message per node where the operation allows it. A
// member rank blocks on a per-rank signal channel until its leader has
// consumed its send buffer and filled its recv buffer — the channel gives
// the happens-before edge that makes the leader's direct buffer access safe.

// Round codes within the tagHier window. Phases that can share a (src, dst)
// leader pair get distinct rounds so a composed schedule (reduce then bcast,
// gather then bcast) never relies on message direction alone to stay
// matched.
const (
	hierRoundBcast   = 30 // inter-leader broadcast fan-out
	hierRoundGather  = 29 // packed node gather to the root
	hierRoundScatter = 28 // packed node scatter from the root
)

// hierLayout is a communicator's node-membership map, built once from the
// profile topology at communicator creation and shared by all member ranks.
// Node indices are dense (first-seen order over comm ranks), so they are
// deterministic for a given rank list regardless of how sparse the
// machine-level node ids are.
type hierLayout struct {
	node    []int   // comm rank -> dense node index
	members [][]int // dense node index -> member comm ranks, ascending
	leader  []int   // dense node index -> first member comm rank
	rep     []int   // dense node index -> representative world rank
	nodes   int
	maxPer  int
	topo    model.Topology

	// Per-member signal channels, created on first hierarchical mover run.
	// Capacity 1: a leader posts at most one token per member per
	// collective, and the member consumes it before its next rendezvous.
	sigOnce sync.Once
	sig     []chan struct{}

	// Topology-neighbour ring order, built on first TorusRing run (it costs
	// O(nodes^2) hop probes, so communicators that never ring never pay).
	ringOnce sync.Once
	ringPerm []int // ring position -> comm rank
	ringPos  []int // comm rank -> ring position
}

// newHierLayout groups the communicator's world ranks by topology node.
func newHierLayout(h model.Hierarchical, ranks []int) *hierLayout {
	l := &hierLayout{node: make([]int, len(ranks)), topo: h}
	idx := make(map[int]int, len(ranks))
	for i, w := range ranks {
		nd := h.NodeOf(w)
		j, ok := idx[nd]
		if !ok {
			j = len(l.members)
			idx[nd] = j
			l.members = append(l.members, nil)
			l.leader = append(l.leader, i)
			l.rep = append(l.rep, w)
		}
		l.node[i] = j
		l.members[j] = append(l.members[j], i)
		if len(l.members[j]) > l.maxPer {
			l.maxPer = len(l.members[j])
		}
	}
	l.nodes = len(l.members)
	return l
}

// signals returns the per-member channels, creating them on first use.
func (l *hierLayout) signals() []chan struct{} {
	l.sigOnce.Do(func() {
		l.sig = make([]chan struct{}, len(l.node))
		for i := range l.sig {
			l.sig[i] = make(chan struct{}, 1)
		}
	})
	return l.sig
}

// leaderFor is the effective leader of dense node nd for a collective rooted
// at comm rank root: the root's own node is re-leadered onto the root, so
// the root never relays through another rank on its node.
func (l *hierLayout) leaderFor(nd, root int) int {
	if l.node[root] == nd {
		return root
	}
	return l.leader[nd]
}

// relNode renumbers dense nodes so the root's node becomes 0.
func (l *hierLayout) relNode(nd, rootNd int) int { return (nd - rootNd + l.nodes) % l.nodes }

// absNode undoes relNode.
func (l *hierLayout) absNode(rel, rootNd int) int { return (rel + rootNd) % l.nodes }

// ring returns the topology-neighbour ring order: nodes visited greedily by
// hop distance from the node of comm rank 0 (ties to the lowest dense
// index — deterministic), members of each node consecutive in comm-rank
// order. Every ring step between nodes is then a near-neighbour hop instead
// of a full-diameter crossing.
func (l *hierLayout) ring() (perm, pos []int) {
	l.ringOnce.Do(func() {
		order := make([]int, 1, l.nodes)
		used := make([]bool, l.nodes)
		used[0] = true
		cur := 0
		for len(order) < l.nodes {
			best, bestH := -1, 0
			for j := 0; j < l.nodes; j++ {
				if used[j] {
					continue
				}
				if h := l.topo.Hops(l.rep[cur], l.rep[j]); best < 0 || h < bestH {
					best, bestH = j, h
				}
			}
			used[best] = true
			order = append(order, best)
			cur = best
		}
		p := make([]int, 0, len(l.node))
		for _, nd := range order {
			p = append(p, l.members[nd]...)
		}
		q := make([]int, len(p))
		for i, r := range p {
			q[r] = i
		}
		l.ringPerm, l.ringPos = p, q
	})
	return l.ringPerm, l.ringPos
}

// ringView positions a rank on the (possibly permuted) ring the ring movers
// walk. The zero permutation is the identity: position == comm rank, which
// reproduces the flat ring schedules exactly.
type ringView struct {
	pos         int // my ring position
	left, right int // comm ranks of my ring neighbours
	perm        []int
}

// rank maps a ring position to a comm rank.
func (v ringView) rank(pos int) int {
	if v.perm == nil {
		return pos
	}
	return v.perm[pos]
}

// ringViewFor builds the view for the selected algorithm: comm-rank order
// for the flat rings, topology-neighbour order for TorusRing.
func (c *Comm) ringViewFor(algo coll.Algo) ringView {
	n := c.Size()
	me := c.Rank()
	v := ringView{pos: me, right: (me + 1) % n, left: (me + n - 1) % n}
	if algo == coll.TorusRing {
		if l := c.csh.hl; l != nil && l.nodes > 1 {
			perm, pos := l.ring()
			v.perm = perm
			v.pos = pos[me]
			v.right = perm[(v.pos+1)%n]
			v.left = perm[(v.pos+n-1)%n]
		}
	}
	return v
}

// release signals every member of nd except the leader self. Called exactly
// once per collective by the node's effective leader, after it has consumed
// the members' send buffers and filled their recv buffers; it fires even on
// the (argument-validation-unreachable) error paths so a leader failure can
// never strand its members on the channel.
func (l *hierLayout) release(nd, self int, sig []chan struct{}) {
	for _, m := range l.members[nd] {
		if m != self {
			sig[m] <- struct{}{}
		}
	}
}

func isPow2Int(x int) bool { return x > 0 && x&(x-1) == 0 }

// lead runs fn on the effective leader of this rank's node for a collective
// rooted at root (root < 0: no root, the node's first member leads), then
// releases the node's other members; a member just waits for that release.
func (c *Comm) lead(root int, fn func(l *hierLayout, nd int) error) error {
	l := c.csh.hl
	me := c.Rank()
	nd := l.node[me]
	sig := l.signals()
	leader := l.leader[nd]
	if root >= 0 {
		leader = l.leaderFor(nd, root)
	}
	if me != leader {
		<-sig[me]
		return nil
	}
	err := fn(l, nd)
	l.release(nd, me, sig)
	return err
}

// allreduceHier: intra-node reduce into the leader's recv view through the
// shared address space, inter-leader exchange (recursive doubling when the
// node count is a power of two, binomial reduce+bcast otherwise), intra-node
// result distribution. Wire traffic is O(nodes log nodes) messages instead
// of O(n log n).
func (c *Comm) allreduceHier(send, recv []byte, op collOp) error {
	return c.lead(-1, func(l *hierLayout, nd int) error {
		me := c.Rank()
		ent := c.csh.entries
		copy(recv, send)
		for _, m := range l.members[nd] {
			if m == me {
				continue
			}
			if err := foldWire(op.d, recv, ent[m].send, op.op); err != nil {
				return err
			}
		}
		if l.nodes > 1 {
			in := transport.GetBuf(len(recv))
			defer transport.PutBuf(in)
			fold := func(peer, round int) error {
				c.recvRaw(in, peer, tagHier, round)
				return foldWire(op.d, recv, in, op.op)
			}
			if isPow2Int(l.nodes) {
				// Recursive doubling over dense node indices.
				for bit := 1; bit < l.nodes; bit <<= 1 {
					peer := l.leader[nd^bit]
					c.sendRaw(recv, peer, tagHier, bitLog(bit))
					if err := fold(peer, bitLog(bit)); err != nil {
						return err
					}
				}
			} else {
				// Binomial reduce to dense node 0, binomial bcast back.
				rel := nd
				for bit := 1; bit < l.nodes; bit <<= 1 {
					if rel&bit != 0 {
						c.sendRaw(recv, l.leader[rel-bit], tagHier, bitLog(bit))
						break
					}
					if rel+bit < l.nodes {
						if err := fold(l.leader[rel+bit], bitLog(bit)); err != nil {
							return err
						}
					}
				}
				if rel != 0 {
					c.recvRaw(recv, l.leader[rel-topBit(rel)], tagHier, hierRoundBcast)
				}
				for bit := fanStart(rel); rel+bit < l.nodes; bit <<= 1 {
					c.sendRaw(recv, l.leader[rel+bit], tagHier, hierRoundBcast)
				}
			}
		}
		for _, m := range l.members[nd] {
			if m != me {
				copy(ent[m].recv, recv)
			}
		}
		return nil
	})
}

// bcastHier: the root feeds a binomial tree over node leaders (one message
// per node) out of its send view; each leader receives into its recv view
// and copies that into its members' recv views.
func (c *Comm) bcastHier(send, recv []byte, root int) error {
	return c.lead(root, func(l *hierLayout, nd int) error {
		me := c.Rank()
		rootNd := l.node[root]
		rel := l.relNode(nd, rootNd)
		buf := send
		if me != root {
			buf = recv
			parent := l.absNode(rel-topBit(rel), rootNd)
			c.recvRaw(buf, l.leaderFor(parent, root), tagHier, hierRoundBcast)
		}
		for bit := fanStart(rel); rel+bit < l.nodes; bit <<= 1 {
			child := l.absNode(rel+bit, rootNd)
			c.sendRaw(buf, l.leaderFor(child, root), tagHier, hierRoundBcast)
		}
		for _, m := range l.members[nd] {
			if m != me {
				copy(c.csh.entries[m].recv, buf)
			}
		}
		return nil
	})
}

// reduceHier: intra-node reduce into each leader, binomial tree over
// leaders toward the root's (re-leadered) node.
func (c *Comm) reduceHier(send, recv []byte, op collOp) error {
	return c.lead(op.root, func(l *hierLayout, nd int) error {
		me := c.Rank()
		acc := transport.GetBuf(len(send))
		in := transport.GetBuf(len(send))
		defer transport.PutBuf(acc)
		defer transport.PutBuf(in)
		copy(acc, send)
		for _, m := range l.members[nd] {
			if m == me {
				continue
			}
			if err := foldWire(op.d, acc, c.csh.entries[m].send, op.op); err != nil {
				return err
			}
		}
		rootNd := l.node[op.root]
		rel := l.relNode(nd, rootNd)
		for bit := 1; bit < l.nodes; bit <<= 1 {
			if rel&bit != 0 {
				parent := l.absNode(rel-bit, rootNd)
				c.sendRaw(acc, l.leaderFor(parent, op.root), tagHier, bitLog(bit))
				return nil
			}
			if rel+bit < l.nodes {
				child := l.absNode(rel+bit, rootNd)
				c.recvRaw(in, l.leaderFor(child, op.root), tagHier, bitLog(bit))
				if err := foldWire(op.d, acc, in, op.op); err != nil {
					return err
				}
			}
		}
		copy(recv, acc)
		return nil
	})
}

// gatherHier: each node leader packs its members' segments into one message
// (member order within the packet is the node's member list); the root
// unpacks each node packet to the members' absolute comm-rank offsets, so
// the result layout is identical to the flat schedules even when node
// membership wraps around the machine and is non-contiguous in comm rank.
func (c *Comm) gatherHier(send, recv []byte, root int) error {
	return c.lead(root, func(l *hierLayout, nd int) error {
		ent := c.csh.entries
		segB := len(send)
		if c.Rank() != root {
			ms := l.members[nd]
			w := transport.GetBuf(len(ms) * segB)
			defer transport.PutBuf(w)
			for i, m := range ms {
				copy(w[i*segB:], ent[m].send)
			}
			c.sendRaw(w, root, tagHier, hierRoundGather)
			return nil
		}
		for _, m := range l.members[nd] {
			copy(recv[m*segB:], ent[m].send)
		}
		w := transport.GetBuf(l.maxPer * segB)
		defer transport.PutBuf(w)
		for j := 0; j < l.nodes; j++ {
			if j == nd {
				continue
			}
			ms := l.members[j]
			c.recvRaw(w[:len(ms)*segB], l.leader[j], tagHier, hierRoundGather)
			for i, m := range ms {
				copy(recv[m*segB:], w[i*segB:(i+1)*segB])
			}
		}
		return nil
	})
}

// scatterHier: the mirror of gatherHier — the root packs one message per
// node, each leader unpacks directly into its members' recv views.
func (c *Comm) scatterHier(send, recv []byte, root int) error {
	return c.lead(root, func(l *hierLayout, nd int) error {
		ent := c.csh.entries
		segB := len(recv)
		if c.Rank() == root {
			for _, m := range l.members[nd] {
				copy(ent[m].recv, send[m*segB:(m+1)*segB])
			}
			w := transport.GetBuf(l.maxPer * segB)
			defer transport.PutBuf(w)
			for j := 0; j < l.nodes; j++ {
				if j == nd {
					continue
				}
				ms := l.members[j]
				for i, m := range ms {
					copy(w[i*segB:], send[m*segB:(m+1)*segB])
				}
				c.sendRaw(w[:len(ms)*segB], l.leader[j], tagHier, hierRoundScatter)
			}
			return nil
		}
		ms := l.members[nd]
		w := transport.GetBuf(len(ms) * segB)
		defer transport.PutBuf(w)
		c.recvRaw(w, root, tagHier, hierRoundScatter)
		for i, m := range ms {
			copy(ent[m].recv, w[i*segB:(i+1)*segB])
		}
		return nil
	})
}
