package mpi

import "fmt"

// Additional collectives: Scatter, Allgather and Alltoall, completing the
// set the application layer and examples draw on. Like the core set they
// ride the rendezvous/replay skeleton in collectives.go.

// Scatter distributes consecutive count-element segments of sendbuf on root
// to every rank's recvbuf, in comm-rank order. sendbuf may be nil on
// non-root ranks. The canonical cost model is the linear algorithm (root
// sends to each rank in comm-rank order).
func (c *Comm) Scatter(sendbuf any, count int, d *Datatype, recvbuf any, root int) error {
	if recvbuf == nil {
		return fmt.Errorf("mpi: Scatter: nil recvbuf")
	}
	sn := -1
	if c.Rank() == root {
		sn = c.Size() * count
	}
	return c.runCollective(collOp{kind: collScatter, root: root, count: count, d: d},
		sendbuf, sn, recvbuf, count)
}

// Allgather concatenates every rank's count-element sendbuf into every
// rank's recvbuf in comm-rank order. The canonical cost model is Gather to
// rank 0 followed by Bcast of the concatenation.
func (c *Comm) Allgather(sendbuf any, count int, d *Datatype, recvbuf any) error {
	if recvbuf == nil {
		return fmt.Errorf("mpi: Allgather: nil recvbuf")
	}
	return c.runCollective(collOp{kind: collAllgather, count: count, d: d},
		sendbuf, count, recvbuf, c.Size()*count)
}

// Alltoall performs a complete exchange: rank i's sendbuf segment j (count
// elements at offset j*count) lands in rank j's recvbuf at offset i*count.
// The canonical cost model is the rank-ordered pairwise exchange: each rank
// injects its n-1 segments in ascending-step order (dst = (me+step) mod n),
// then drains them in the same order (src = (me-step+n) mod n).
func (c *Comm) Alltoall(sendbuf any, count int, d *Datatype, recvbuf any) error {
	if recvbuf == nil {
		return fmt.Errorf("mpi: Alltoall: nil recvbuf")
	}
	return c.runCollective(collOp{kind: collAlltoall, count: count, d: d},
		sendbuf, c.Size()*count, recvbuf, c.Size()*count)
}
