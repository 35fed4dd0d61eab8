package mpi

import (
	"commintent/internal/model"
)

// The canonical-schedule replay. Virtual time for a collective is defined
// by the original message-passing implementation's per-rank clock
// arithmetic: binomial-tree broadcast and reduce, linear gather/scatter,
// reduce+bcast allreduce, gather+bcast allgather, and a rank-ordered
// pairwise alltoall. The replayer evaluates that exact arithmetic serially
// over the participants' entry clocks — every Advance, every rendezvous
// max(arriveV, postV) coupling, every unexpected-message penalty — without
// moving a byte, and it is the package's one representation of a collective
// schedule: the bytes themselves move once, by the owner step's direct copy
// between the published wire views (moveDirect), so the clocks the ranks
// leave with are the model's, not the transport's.
//
// Every cost term below must stay in lockstep with sendInternal /
// recvInternal and the legacy algorithm structure; the vtpin golden
// (captured from the original implementation) pins the agreement.
type replayer struct {
	p *model.Profile
	c *Comm        // comm-rank → world-rank mapping for topology latency
	v []model.Time // per comm-rank virtual clocks: entries in, exits out
}

// send replays sendInternal on comm rank src: the local send overhead and
// injection advance, returning the message's virtual arrival time at dst.
func (r *replayer) send(src, dst, nbytes int) model.Time {
	r.v[src] += r.p.MPISendOverhead + r.p.InjectTime(nbytes)
	return r.v[src] + r.p.MPILatencyBetween(r.c.WorldRank(src), r.c.WorldRank(dst))
}

// recv replays recvInternal on comm rank dst for a message arriving at
// arriveV: post overhead, the rendezvous max-coupling, match and copy-out
// costs, and the unexpected-queue penalty when the wire beat the post.
func (r *replayer) recv(dst int, arriveV model.Time, nbytes int) {
	r.v[dst] += r.p.MPIRecvOverhead
	postV := r.v[dst]
	ready := model.Max(arriveV, postV) + r.p.MPIMatchCost + r.p.RecvCopyTime(nbytes)
	if arriveV < postV {
		ready += r.p.MPIUnexpected
	}
	if ready > r.v[dst] {
		r.v[dst] = ready
	}
}

// codecCost is the local cost encodeInto/decode charge besides the copy
// itself: zero for primitive slices, a staging memcpy for derived types.
func codecCost(p *model.Profile, d *Datatype, count int) model.Time {
	if d.IsDerived() {
		return p.MemcpyTime(count * d.Size())
	}
	return 0
}

// bcast replays the binomial-tree broadcast from comm rank root. Ranks are
// processed in relative-rank order, which is a topological order of the
// tree (a parent's relative rank is always below its children's).
func (r *replayer) bcast(root, count int, d *Datatype, arr []model.Time) {
	n := len(r.v)
	nb := count * d.Size()
	cc := codecCost(r.p, d, count)
	for rel := 0; rel < n; rel++ {
		me := absRank(rel, root, n)
		if rel == 0 {
			r.v[me] += cc // root encodes into the wire buffer
		} else {
			r.recv(me, arr[rel], nb)
			r.v[me] += cc // child decodes out of it
		}
		for bit := fanStart(rel); rel+bit < n; bit <<= 1 {
			arr[rel+bit] = r.send(me, absRank(rel+bit, root, n), nb)
		}
	}
}

// reduce replays the ascending-bit binomial reduction to comm rank root:
// at round bit, ranks whose lowest set bit is bit encode and send their
// partial upward and are done; surviving ranks receive, decode, and pay
// the combine arithmetic.
func (r *replayer) reduce(root, count int, d *Datatype, arr []model.Time) {
	n := len(r.v)
	nb := count * d.Size()
	cc := codecCost(r.p, d, count)
	combineCost := model.Time(count) * r.p.MPIReduceCompute
	for bit := 1; bit < n; bit <<= 1 {
		// Senders of this round first: their clocks are final (they
		// received in every earlier round), and receivers need the
		// arrival times.
		for rel := bit; rel < n; rel += bit << 1 {
			me := absRank(rel, root, n)
			r.v[me] += cc
			arr[rel-bit] = r.send(me, absRank(rel-bit, root, n), nb)
		}
		for rel := 0; rel+bit < n; rel += bit << 1 {
			me := absRank(rel, root, n)
			r.recv(me, arr[rel], nb)
			r.v[me] += cc + combineCost
		}
	}
}

// gather replays the linear gather: every non-root encodes and sends, the
// root receives in comm-rank order.
func (r *replayer) gather(root, count int, d *Datatype, arr []model.Time) {
	n := len(r.v)
	nb := count * d.Size()
	cc := codecCost(r.p, d, count)
	for rank := 0; rank < n; rank++ {
		if rank == root {
			continue
		}
		r.v[rank] += cc
		arr[rank] = r.send(rank, root, nb)
	}
	for rank := 0; rank < n; rank++ {
		if rank == root {
			continue // root's own segment is a local copy, uncharged
		}
		r.recv(root, arr[rank], nb)
		r.v[root] += cc
	}
}

// scatter replays the linear scatter: the root encodes and sends segments
// in comm-rank order, every other rank receives and decodes.
func (r *replayer) scatter(root, count int, d *Datatype, arr []model.Time) {
	n := len(r.v)
	nb := count * d.Size()
	cc := codecCost(r.p, d, count)
	for rank := 0; rank < n; rank++ {
		if rank == root {
			continue
		}
		r.v[root] += cc
		arr[rank] = r.send(root, rank, nb)
	}
	for rank := 0; rank < n; rank++ {
		if rank == root {
			continue
		}
		r.recv(rank, arr[rank], nb)
		r.v[rank] += cc
	}
}

// alltoall replays the canonical rank-ordered pairwise exchange: each rank
// first encodes and sends its n-1 segments in ascending-offset order, then
// receives and decodes them in the same order. Arrival times follow in
// closed form from the sender's entry clock, so the replay needs no O(n^2)
// arrival matrix.
func (r *replayer) alltoall(count int, d *Datatype, entry []model.Time) {
	n := len(r.v)
	nb := count * d.Size()
	cc := codecCost(r.p, d, count)
	perSend := cc + r.p.MPISendOverhead + r.p.InjectTime(nb)
	copy(entry, r.v)
	for me := 0; me < n; me++ {
		r.v[me] += model.Time(n-1) * perSend
	}
	for me := 0; me < n; me++ {
		for step := 1; step < n; step++ {
			src := (me - step + n) % n
			arrive := entry[src] + model.Time(step)*perSend +
				r.p.MPILatencyBetween(r.c.WorldRank(src), r.c.WorldRank(me))
			r.recv(me, arrive, nb)
			r.v[me] += cc
		}
	}
}

// absRank maps a root-relative rank back to a comm rank.
func absRank(rel, root, n int) int { return (rel + root) % n }

// topBit returns the highest set bit of x (x > 0).
func topBit(x int) int {
	b := 1
	for b<<1 <= x {
		b <<= 1
	}
	return b
}

// fanStart returns the bit at which rank me starts fanning out in a
// binomial broadcast: 1 for the root, else one above its highest set bit.
func fanStart(me int) int {
	if me == 0 {
		return 1
	}
	return topBit(me) << 1
}
