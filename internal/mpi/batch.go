package mpi

import (
	"encoding/binary"
	"fmt"

	"commintent/internal/model"
	rt "commintent/internal/runtime"
	"commintent/internal/simnet"
)

// Small-message coalescing wire format. A batch folds several logically
// separate transfers to the same destination into ONE pooled wire message:
//
//	[u32 nparts] [u32 len_0] ... [u32 len_{nparts-1}] [payload_0] ... [payload_{nparts-1}]
//
// The offset-table header lets the receiver scatter each member payload
// into its own destination buffer on arrival without knowing, at post
// time, how the sender partitioned its parts into batches. A batch is one
// fabric message end to end: it is injected once, matched once, and —
// critically for the PR 5 fault semantics — dropped, ghosted, retried and
// given up on as one unit.
//
// Batches are always eager (IsendBatch enforces header+payload ≤ the
// profile's eager threshold): a rendezvous batch could block its sender
// before the receiver's scatter queue is drained, re-creating exactly the
// pairwise deadlock the directive layer exists to avoid.

// BatchPart is one member transfer of a coalesced batch.
type BatchPart struct {
	Buf   any
	Count int
	Dt    *Datatype
}

// Bytes reports the part's wire size.
func (bp BatchPart) Bytes() int { return bp.Count * bp.Dt.Size() }

// BatchHeaderSize is the offset-table size for nparts members.
func BatchHeaderSize(nparts int) int { return 4 + 4*nparts }

// BatchHeaderMax is the largest possible batch header, used to budget the
// eager-threshold payload cap before a batch's part count is known.
const BatchHeaderMax = 4 + 4*rt.MaxBatchParts

// BatchWireCap bounds any legal batch message (header + payload), sizing
// the receiver's pooled staging buffer.
const BatchWireCap = BatchHeaderMax + rt.MaxBatchBytes

// IsendBatch starts a non-blocking eager send of all parts as one wire
// message to comm rank dest. The per-message costs (send overhead, request
// bookkeeping, injection) are charged ONCE for the whole batch — that
// amortisation is the entire point of coalescing. The returned request
// completes like any eager send.
func (c *Comm) IsendBatch(parts []BatchPart, dest, tag int) (*Request, error) {
	if len(parts) == 0 || len(parts) > rt.MaxBatchParts {
		return nil, fmt.Errorf("mpi: IsendBatch: %d parts outside [1,%d]", len(parts), rt.MaxBatchParts)
	}
	if err := c.checkTag(tag); err != nil {
		return nil, err
	}
	if dest < 0 || dest >= c.Size() {
		return nil, fmt.Errorf("mpi: IsendBatch to rank %d of comm size %d", dest, c.Size())
	}
	payload := 0
	for i, bp := range parts {
		b := bp.Bytes()
		if b <= 0 {
			return nil, fmt.Errorf("mpi: IsendBatch: part %d has %d bytes", i, b)
		}
		payload += b
	}
	if payload > rt.MaxBatchBytes {
		return nil, fmt.Errorf("mpi: IsendBatch: payload %d exceeds cap %d", payload, rt.MaxBatchBytes)
	}
	p := c.prof()
	n := BatchHeaderSize(len(parts)) + payload
	if n > p.MPIEagerThreshold {
		return nil, fmt.Errorf("mpi: IsendBatch: wire size %d exceeds eager threshold %d", n, p.MPIEagerThreshold)
	}
	sp := c.span("MPI_IsendBatch", c.stamp())
	wire := c.bufs.GetBuf(n)
	binary.LittleEndian.PutUint32(wire, uint32(len(parts)))
	off := BatchHeaderSize(len(parts))
	var encCost model.Time
	for i, bp := range parts {
		b := bp.Bytes()
		binary.LittleEndian.PutUint32(wire[4+4*i:], uint32(b))
		cost, err := bp.Dt.encodeInto(p, wire[off:off+b], bp.Buf, bp.Count)
		if err != nil {
			c.bufs.PutBuf(wire)
			return nil, fmt.Errorf("mpi: IsendBatch part %d: %w", i, err)
		}
		encCost += cost
		off += b
	}
	c.clock().Advance(p.MPISendOverhead + p.MPIRequestPerItem + encCost + p.InjectTime(n))
	now := c.stamp()
	defer sp.End(now)
	arrive := now
	if !c.wall {
		arrive += p.MPILatencyBetween(c.rk.ID, c.WorldRank(dest))
	}
	sr := c.port.Send(c.WorldRank(dest), c.wireTag(tag), wire, arrive, false)
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvSend, Peer: c.WorldRank(dest), Tag: tag, Bytes: n, V: now})
	return &Request{comm: c, send: sr, isSend: true, destWorld: c.WorldRank(dest)}, nil
}

// batchDest is one pending scatter destination.
type batchDest struct {
	buf   any
	count int
	dt    *Datatype
}

// BatchQueue is the receiver side of coalescing for ONE source rank: the
// ordered list of destination buffers the next arriving batches scatter
// into. Because both ranks of an SPMD pair walk the same program order,
// the receiver's queue order matches the sender's part order exactly; the
// queue therefore never needs to know how the sender partitioned parts
// into batches. A batch carrying parts the receiver has not declared yet
// (the sender flushed earlier than the receiver) is stashed raw and
// consumed — as a local copy, no wire traffic — when the destinations
// appear.
type BatchQueue struct {
	dests []batchDest
	head  int // consumed prefix of dests
	stash [][]byte
	shead int // consumed prefix of stash

	// Cumulative statistics, read by the directive layer for telemetry.
	Scattered    int // parts delivered straight off the wire
	StashedParts int // parts that arrived before their destination was declared
}

// Add appends one expected part (in program order) for this source.
func (q *BatchQueue) Add(buf any, count int, d *Datatype) error {
	if cap, err := ElemCount(buf, d); err != nil {
		return fmt.Errorf("mpi: batch recv part: %w", err)
	} else if count > cap {
		return fmt.Errorf("mpi: batch recv part: count %d exceeds buffer capacity %d", count, cap)
	}
	q.dests = append(q.dests, batchDest{buf: buf, count: count, dt: d})
	return nil
}

// Pending reports how many declared parts have not been delivered yet.
func (q *BatchQueue) Pending() int { return len(q.dests) - q.head }

// StashDepth reports how many arrived-but-undeclared payloads are held.
func (q *BatchQueue) StashDepth() int { return len(q.stash) - q.shead }

// ConsumeStash delivers stashed payloads into declared destinations while
// both exist, returning the virtual copy cost and the number of parts
// consumed. Stash consumption is a local memcpy plus the datatype decode —
// the wire cost was paid when the batch carrying the payload arrived.
func (q *BatchQueue) ConsumeStash(p *model.Profile) (model.Time, int, error) {
	var cost model.Time
	consumed := 0
	for q.head < len(q.dests) && q.shead < len(q.stash) {
		d := q.dests[q.head]
		raw := q.stash[q.shead]
		want := d.count * d.dt.Size()
		if want != len(raw) {
			return cost, consumed, fmt.Errorf(
				"mpi: batch stash part mismatch: declared %d bytes, stashed %d (mismatched send/recv program order?)",
				want, len(raw))
		}
		dc, err := d.dt.decode(p, raw, d.buf, d.count)
		if err != nil {
			return cost, consumed, fmt.Errorf("mpi: batch stash decode: %w", err)
		}
		cost += p.MemcpyTime(len(raw)) + dc
		q.head++
		q.shead++
		consumed++
	}
	q.compact()
	return cost, consumed, nil
}

// scatter delivers one arrived batch wire message: each declared payload
// decodes into the next pending destination in FIFO order; payloads beyond
// the declared frontier are stashed. Returns the decode cost to add to the
// receive's virtual completion.
func (q *BatchQueue) scatter(p *model.Profile, wire []byte) (model.Time, error) {
	if len(wire) < 4 {
		return 0, fmt.Errorf("mpi: batch scatter: %d-byte message has no header", len(wire))
	}
	nparts := int(binary.LittleEndian.Uint32(wire))
	if nparts < 1 || nparts > rt.MaxBatchParts {
		return 0, fmt.Errorf("mpi: batch scatter: part count %d outside [1,%d]", nparts, rt.MaxBatchParts)
	}
	off := BatchHeaderSize(nparts)
	if len(wire) < off {
		return 0, fmt.Errorf("mpi: batch scatter: truncated offset table")
	}
	var cost model.Time
	for i := 0; i < nparts; i++ {
		b := int(binary.LittleEndian.Uint32(wire[4+4*i:]))
		if b <= 0 || off+b > len(wire) {
			return cost, fmt.Errorf("mpi: batch scatter: part %d length %d overruns %d-byte message", i, b, len(wire))
		}
		seg := wire[off : off+b]
		if q.head < len(q.dests) {
			d := q.dests[q.head]
			want := d.count * d.dt.Size()
			if want != b {
				return cost, fmt.Errorf(
					"mpi: batch scatter: part %d carries %d bytes, destination expects %d (mismatched send/recv program order?)",
					i, b, want)
			}
			dc, err := d.dt.decode(p, seg, d.buf, d.count)
			if err != nil {
				return cost, fmt.Errorf("mpi: batch scatter part %d: %w", i, err)
			}
			cost += dc
			q.head++
			q.Scattered++
		} else {
			cp := make([]byte, b)
			copy(cp, seg)
			q.stash = append(q.stash, cp)
			q.StashedParts++
		}
		off += b
	}
	if off != len(wire) {
		return cost, fmt.Errorf("mpi: batch scatter: %d trailing bytes after %d parts", len(wire)-off, nparts)
	}
	q.compact()
	return cost, nil
}

// compact drops fully-consumed prefixes so steady-state queues do not grow.
func (q *BatchQueue) compact() {
	if q.head == len(q.dests) {
		q.dests = q.dests[:0]
		q.head = 0
	}
	if q.shead == len(q.stash) {
		q.stash = q.stash[:0]
		q.shead = 0
	}
}

// IrecvBatch posts a receive for the next batch message from comm rank
// source; on arrival the batch scatters into q's pending destinations.
// Like IsendBatch, the per-message receive costs are charged once for the
// whole batch. The source must be concrete — a batch stream is a
// program-order contract with one peer, so wildcards make no sense here.
func (c *Comm) IrecvBatch(q *BatchQueue, source, tag int) (*Request, error) {
	if err := c.checkTag(tag); err != nil {
		return nil, err
	}
	if source < 0 || source >= c.Size() {
		return nil, fmt.Errorf("mpi: IrecvBatch from rank %d of comm size %d", source, c.Size())
	}
	if q == nil || q.Pending() == 0 {
		return nil, fmt.Errorf("mpi: IrecvBatch with no pending parts")
	}
	p := c.prof()
	sp := c.span("MPI_IrecvBatch", c.stamp())
	c.clock().Advance(p.MPIRecvOverhead + p.MPIRequestPerItem)
	now := c.stamp()
	defer sp.End(now)
	wire := c.bufs.GetBuf(BatchWireCap)
	rr := c.port.PostRecv(c.WorldRank(source), c.wireTag(tag), wire, now)
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvRecvPost, Peer: c.WorldRank(source), Tag: tag, Bytes: len(wire), V: now})
	return &Request{comm: c, recv: rr, wire: wire, batch: q}, nil
}
