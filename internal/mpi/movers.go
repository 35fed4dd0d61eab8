package mpi

import (
	"fmt"

	"commintent/internal/coll"
	"commintent/internal/transport"
)

// Data movers: the message-passing algorithms that move real bytes when the
// selector picks anything other than the step's direct move. Movers run
// strictly *after* the collective's rendezvous has released, when every
// rank's virtual clock is already set to its canonical exit time — so they
// are clockless: every send is injected with zero virtual arrival, every
// receive posted with zero virtual post time, and neither side reads or
// advances the rank clock. The wire traffic they generate is pure transport.
//
// They work on the wire views the rank published (send, recv): the bytes a
// message carries are the bytes the view holds, so a mover sends straight
// out of a view and receives straight into one, and only a reduction looks
// at elements (foldWire).
//
// All sends are eager (rendezvous=false), so no schedule below can deadlock:
// a send enqueues and returns, and FIFO matching per (source, tag) pairs
// same-tag messages with posted receives in order, which keeps segmented
// pipelines and repeated collectives on one communicator well-ordered.
//
// Scratch follows one discipline: pooled wire buffers, one per role per
// mover invocation, reused across every tree or ring round (send-side
// buffers are pooled per message because the endpoint takes ownership and
// recycles them on delivery).

// collSegBytes is the segment size for pipelined large-message trees.
const collSegBytes = 64 << 10

// runMover executes this rank's part of the selected data-movement
// algorithm for the collective described by op.
func (c *Comm) runMover(op collOp, send, recv []byte, algo coll.Algo) error {
	switch op.kind {
	case coll.Bcast:
		switch algo {
		case coll.Linear:
			c.bcastLinear(send, recv, op.root)
			return nil
		case coll.Binomial:
			c.bcastBinomial(send, recv, op.root)
			return nil
		case coll.HierTree:
			return c.bcastHier(send, recv, op.root)
		}
	case coll.Reduce:
		switch algo {
		case coll.Linear:
			return c.reduceLinear(send, recv, op)
		case coll.Binomial:
			return c.reduceBinomial(send, recv, op)
		case coll.HierTree:
			return c.reduceHier(send, recv, op)
		}
	case coll.Allreduce:
		switch algo {
		case coll.Linear, coll.Binomial:
			op.root = 0
			if algo == coll.Linear {
				if err := c.reduceLinear(send, recv, op); err != nil {
					return err
				}
				c.bcastLinear(recv, recv, 0)
				return nil
			}
			if err := c.reduceBinomial(send, recv, op); err != nil {
				return err
			}
			c.bcastBinomial(recv, recv, 0)
			return nil
		case coll.RecDouble:
			return c.allreduceRecDouble(send, recv, op)
		case coll.Ring, coll.TorusRing:
			return c.allreduceRing(send, recv, op, c.ringViewFor(algo))
		case coll.HierAllreduce:
			return c.allreduceHier(send, recv, op)
		}
	case coll.Gather:
		switch algo {
		case coll.Linear:
			c.gatherLinear(send, recv, op.root)
			return nil
		case coll.Binomial:
			c.gatherBinomial(send, recv, op.root)
			return nil
		case coll.HierTree:
			return c.gatherHier(send, recv, op.root)
		}
	case coll.Scatter:
		switch algo {
		case coll.Linear:
			c.scatterLinear(send, recv, op.root)
			return nil
		case coll.Binomial:
			c.scatterBinomial(send, recv, op.root)
			return nil
		case coll.HierTree:
			return c.scatterHier(send, recv, op.root)
		}
	case coll.Allgather:
		switch algo {
		case coll.Linear, coll.Binomial:
			if algo == coll.Linear {
				c.gatherLinear(send, recv, 0)
			} else {
				c.gatherBinomial(send, recv, 0)
			}
			c.bcastBinomial(recv, recv, 0)
			return nil
		case coll.Ring, coll.TorusRing:
			c.allgatherRing(send, recv, c.ringViewFor(algo))
			return nil
		case coll.HierTree:
			if err := c.gatherHier(send, recv, 0); err != nil {
				return err
			}
			return c.bcastHier(recv, recv, 0)
		}
	case coll.Alltoall:
		switch algo {
		case coll.Pairwise:
			c.alltoallPairwise(send, recv)
			return nil
		case coll.Linear, coll.Ring, coll.TorusRing:
			c.alltoallRing(send, recv, c.ringViewFor(algo))
			return nil
		}
	}
	return fmt.Errorf("mpi: no %s mover for %s", op.kind, algo)
}

// sendRaw injects data to comm rank dst with zero virtual arrival time.
// The payload is copied into a pooled buffer the endpoint owns.
func (c *Comm) sendRaw(data []byte, dst, opTag, round int) {
	wire := transport.GetBuf(len(data))
	copy(wire, data)
	c.port.Send(c.WorldRank(dst), c.innerTag(opTag+round*8), wire, 0, false)
}

// recvRaw blocks until a message from comm rank src with the given tag
// lands in buf, with zero virtual post time.
func (c *Comm) recvRaw(buf []byte, src, opTag, round int) {
	rr := c.port.PostRecv(c.WorldRank(src), c.innerTag(opTag+round*8), buf, 0)
	rr.Wait()
	rr.Release()
}

func lowbit(x int) int { return x & -x }

// bcastLinear: the root sends the whole payload (its send view) to every
// rank in comm-rank order; everyone else receives once into its recv view.
func (c *Comm) bcastLinear(send, recv []byte, root int) {
	if c.Rank() != root {
		c.recvRaw(recv, root, tagBcast, 0)
		return
	}
	for r := 0; r < c.Size(); r++ {
		if r != root {
			c.sendRaw(send, r, tagBcast, 0)
		}
	}
}

// bcastBinomial: classic binomial tree with segmentation for large
// payloads — each rank forwards segment s to its children as soon as it has
// it, so segments pipeline down the tree.
func (c *Comm) bcastBinomial(send, recv []byte, root int) {
	n := c.Size()
	rel := relRank(c.Rank(), root, n)
	buf, parent := send, -1
	if rel != 0 {
		buf, parent = recv, absRank(rel-topBit(rel), root, n)
	}
	for off := 0; off < len(buf); off += collSegBytes {
		w := buf[off:min(off+collSegBytes, len(buf))]
		if parent >= 0 {
			c.recvRaw(w, parent, tagBcast, 0)
		}
		for bit := fanStart(rel); rel+bit < n; bit <<= 1 {
			c.sendRaw(w, absRank(rel+bit, root, n), tagBcast, 0)
		}
	}
}

// reduceLinear: every rank sends its contribution to the root, which
// combines them into its recv view in comm-rank order.
func (c *Comm) reduceLinear(send, recv []byte, op collOp) error {
	if c.Rank() != op.root {
		c.sendRaw(send, op.root, tagReduce, 0)
		return nil
	}
	copy(recv, send)
	in := transport.GetBuf(len(send))
	defer transport.PutBuf(in)
	for r := 0; r < c.Size(); r++ {
		if r == op.root {
			continue
		}
		c.recvRaw(in, r, tagReduce, 0)
		if err := foldWire(op.d, recv, in, op.op); err != nil {
			return err
		}
	}
	return nil
}

// reduceBinomial: ascending-bit binomial tree. One pooled accumulator and
// one pooled receive buffer serve every round.
func (c *Comm) reduceBinomial(send, recv []byte, op collOp) error {
	n := c.Size()
	rel := relRank(c.Rank(), op.root, n)
	acc := transport.GetBuf(len(send))
	in := transport.GetBuf(len(send))
	defer transport.PutBuf(acc)
	defer transport.PutBuf(in)
	copy(acc, send)
	for bit := 1; bit < n; bit <<= 1 {
		if rel&bit != 0 {
			c.sendRaw(acc, absRank(rel-bit, op.root, n), tagReduce, bitLog(bit))
			return nil
		}
		if rel+bit < n {
			c.recvRaw(in, absRank(rel+bit, op.root, n), tagReduce, bitLog(bit))
			if err := foldWire(op.d, acc, in, op.op); err != nil {
				return err
			}
		}
	}
	copy(recv, acc)
	return nil
}

// allreduceRecDouble: recursive doubling for power-of-two communicators —
// log2(n) pairwise exchange rounds accumulating in the recv view, each rank
// ending with the full result.
func (c *Comm) allreduceRecDouble(send, recv []byte, op collOp) error {
	n := c.Size()
	me := c.Rank()
	copy(recv, send)
	in := transport.GetBuf(len(recv))
	defer transport.PutBuf(in)
	for bit := 1; bit < n; bit <<= 1 {
		c.sendRaw(recv, me^bit, tagAllreduce, bitLog(bit))
		c.recvRaw(in, me^bit, tagAllreduce, bitLog(bit))
		if err := foldWire(op.d, recv, in, op.op); err != nil {
			return err
		}
	}
	return nil
}

// ringChunk returns the element range of chunk i when count elements are
// split as evenly as possible over n chunks.
func ringChunk(count, n, i int) (start, size int) {
	base, rem := count/n, count%n
	start = i*base + min(i, rem)
	size = base
	if i < rem {
		size++
	}
	return
}

// allreduceRing: bandwidth-optimal ring — a reduce-scatter pass followed by
// an allgather pass over the recv view, each moving 1/n of the payload per
// step, with one pooled receive buffer reused across the reduce-scatter
// rounds. The view decides the walk order: identity for the flat Ring,
// topology-neighbour for TorusRing (chunks are keyed by ring position, so
// the result is order-independent).
func (c *Comm) allreduceRing(send, recv []byte, op collOp, v ringView) error {
	n := c.Size()
	me := v.pos
	esz := op.d.Size()
	copy(recv, send)
	chunk := func(i int) []byte {
		off, size := ringChunk(op.count, n, i)
		return recv[off*esz : (off+size)*esz]
	}
	in := transport.GetBuf((op.count/n + 1) * esz)
	defer transport.PutBuf(in)
	// Reduce-scatter: after step s each rank has fully combined one more
	// chunk; rank me ends owning chunk (me+1) mod n.
	for step := 0; step < n-1; step++ {
		if s := chunk((me - step + 2*n) % n); len(s) > 0 {
			c.sendRaw(s, v.right, tagAllreduce, step)
		}
		if r := chunk((me - step - 1 + 2*n) % n); len(r) > 0 {
			c.recvRaw(in[:len(r)], v.left, tagAllreduce, step)
			if err := foldWire(op.d, r, in[:len(r)], op.op); err != nil {
				return err
			}
		}
	}
	// Allgather: circulate the owned chunks.
	for step := 0; step < n-1; step++ {
		if s := chunk((me - step + 1 + 2*n) % n); len(s) > 0 {
			c.sendRaw(s, v.right, tagAllreduce, n+step)
		}
		if r := chunk((me - step + 2*n) % n); len(r) > 0 {
			c.recvRaw(r, v.left, tagAllreduce, n+step)
		}
	}
	return nil
}

// gatherLinear: every rank sends its segment to the root, which receives in
// comm-rank order, each segment straight into its slot of the recv view.
func (c *Comm) gatherLinear(send, recv []byte, root int) {
	if c.Rank() != root {
		c.sendRaw(send, root, tagGather, 0)
		return
	}
	nb := len(send)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			copy(recv[r*nb:], send)
			continue
		}
		c.recvRaw(recv[r*nb:(r+1)*nb], r, tagGather, 0)
	}
}

// gatherBinomial: each rank accumulates a contiguous block of
// relative-rank segments and forwards it up the tree in one message, so the
// root sees log2(n) receives instead of n-1.
func (c *Comm) gatherBinomial(send, recv []byte, root int) {
	n := c.Size()
	rel := relRank(c.Rank(), root, n)
	segB := len(send)
	blk := n
	if rel != 0 {
		blk = min(lowbit(rel), n-rel)
	}
	st := transport.GetBuf(blk * segB)
	defer transport.PutBuf(st)
	copy(st, send)
	have := 1
	for bit := 1; bit < n; bit <<= 1 {
		if rel&bit != 0 {
			c.sendRaw(st[:have*segB], absRank(rel-bit, root, n), tagGather, bitLog(bit))
			return
		}
		if rel+bit < n {
			in := min(bit, n-(rel+bit))
			c.recvRaw(st[bit*segB:(bit+in)*segB], absRank(rel+bit, root, n), tagGather, bitLog(bit))
			have = bit + in
		}
	}
	// Root: staging holds all n segments in relative order; move each to
	// its absolute position.
	for r := 0; r < n; r++ {
		copy(recv[absRank(r, root, n)*segB:], st[r*segB:(r+1)*segB])
	}
}

// scatterLinear: the root sends each rank its segment in comm-rank order.
func (c *Comm) scatterLinear(send, recv []byte, root int) {
	if c.Rank() != root {
		c.recvRaw(recv, root, tagScatter, 0)
		return
	}
	nb := len(recv)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			copy(recv, send[r*nb:(r+1)*nb])
			continue
		}
		c.sendRaw(send[r*nb:(r+1)*nb], r, tagScatter, 0)
	}
}

// scatterBinomial: the mirror of gatherBinomial — blocks of relative-rank
// segments flow down the tree, halving at each level.
func (c *Comm) scatterBinomial(send, recv []byte, root int) {
	n := c.Size()
	rel := relRank(c.Rank(), root, n)
	segB := len(recv)
	var blk, pbit int
	if rel == 0 {
		blk = n
		pbit = topBit(max(n-1, 1)) << 1
	} else {
		pbit = lowbit(rel)
		blk = min(pbit, n-rel)
	}
	st := transport.GetBuf(blk * segB)
	defer transport.PutBuf(st)
	if rel == 0 {
		for r := 0; r < n; r++ {
			abs := absRank(r, root, n)
			copy(st[r*segB:(r+1)*segB], send[abs*segB:])
		}
	} else {
		c.recvRaw(st, absRank(rel-pbit, root, n), tagScatter, bitLog(pbit))
	}
	for bit := pbit >> 1; bit >= 1; bit >>= 1 {
		if rel+bit < n {
			cnt := min(bit, n-(rel+bit))
			c.sendRaw(st[bit*segB:(bit+cnt)*segB], absRank(rel+bit, root, n), tagScatter, bitLog(bit))
		}
	}
	copy(recv, st[:segB])
}

// allgatherRing: n-1 neighbour steps, each forwarding the segment received
// in the previous step; every rank's recv view fills in place. Positions
// come from the view; the circulating segment at position q is always comm
// rank v.rank(q)'s contribution, so the recv layout stays comm-rank order
// regardless of walk order.
func (c *Comm) allgatherRing(send, recv []byte, v ringView) {
	n := c.Size()
	me := v.pos
	segB := len(send)
	seg := func(pos int) []byte {
		r := v.rank(pos)
		return recv[r*segB : (r+1)*segB]
	}
	copy(seg(me), send)
	for step := 0; step < n-1; step++ {
		c.sendRaw(seg((me-step+2*n)%n), v.right, tagAllgather, step)
		c.recvRaw(seg((me-step-1+2*n)%n), v.left, tagAllgather, step)
	}
}

// alltoallPairwise: XOR schedule for power-of-two communicators — step s
// exchanges segments with partner me^s, a perfect matching per step.
func (c *Comm) alltoallPairwise(send, recv []byte) {
	n := c.Size()
	me := c.Rank()
	segB := len(send) / n
	copy(recv[me*segB:(me+1)*segB], send[me*segB:])
	for step := 1; step < n; step++ {
		p := me ^ step
		c.sendRaw(send[p*segB:(p+1)*segB], p, tagAlltoall, step)
		c.recvRaw(recv[p*segB:(p+1)*segB], p, tagAlltoall, step)
	}
}

// alltoallRing: step s sends to the rank s ring positions ahead and
// receives from the rank s positions behind — the canonical schedule when
// the view is the identity, near-neighbour traffic when it is the topology
// ring.
func (c *Comm) alltoallRing(send, recv []byte, v ringView) {
	n := c.Size()
	me := c.Rank()
	segB := len(send) / n
	copy(recv[me*segB:(me+1)*segB], send[me*segB:])
	for step := 1; step < n; step++ {
		dst := v.rank((v.pos + step) % n)
		src := v.rank((v.pos - step + n) % n)
		c.sendRaw(send[dst*segB:(dst+1)*segB], dst, tagAlltoall, step)
		c.recvRaw(recv[src*segB:(src+1)*segB], src, tagAlltoall, step)
	}
}
