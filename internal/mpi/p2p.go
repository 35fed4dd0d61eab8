package mpi

import (
	"errors"
	"fmt"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

// AnySource and AnyTag are the receive wildcards.
const (
	AnySource = transport.AnySource
	AnyTag    = transport.AnyTag
)

// ErrRequestActive is returned by IsendInto/IrecvInto when the request's
// previous operation has not been completed: its storage still tracks that
// operation, which stays completable.
var ErrRequestActive = errors.New("mpi: request is still active")

// Isend starts a non-blocking send of count elements of buf (datatype d) to
// comm rank dest with the given tag. Messages up to the profile's eager
// threshold use the eager protocol (buffer reusable on return); larger
// messages use rendezvous and their request completes only when the
// matching receive is posted. Either way the returned request must be
// completed with Wait/Waitall/Test.
func (c *Comm) Isend(buf any, count int, d *Datatype, dest, tag int) (*Request, error) {
	return c.isend(nil, buf, count, d, dest, tag)
}

// IsendInto is Isend in request storage the caller owns — what a caller
// that knows the operation repeats (the directive layer's region ledger)
// uses to start it, iteration after iteration, on memory that exists. r
// must be inactive: zero, or completed (cleanly or with a fault) by
// Wait/Waitall/Test.
func (c *Comm) IsendInto(r *Request, buf any, count int, d *Datatype, dest, tag int) error {
	_, err := c.isend(r, buf, count, d, dest, tag)
	return err
}

func (c *Comm) isend(r *Request, buf any, count int, d *Datatype, dest, tag int) (*Request, error) {
	r, err := idle(r)
	if err != nil {
		return nil, err
	}
	if *r, err = c.makeSendReq(buf, count, d, dest, tag); err != nil {
		return nil, err
	}
	return r, nil
}

// idle returns the storage a non-blocking operation may be started in: r
// when it is inactive, a new request when r is nil. Starting overwrites the
// whole request, so nothing of a previous operation — status, sticky fault,
// Waitany claim — survives into the next, and a start that fails leaves it
// zero, hence inactive.
func idle(r *Request) (*Request, error) {
	switch {
	case r == nil:
		return new(Request), nil
	case r.comm != nil && !r.done:
		return nil, ErrRequestActive
	}
	return r, nil
}

// makeSendReq starts the send and returns the tracking request by value, so
// blocking Send can keep its request on the stack (returning rather than
// writing through a *Request keeps escape analysis from heap-boxing buf).
// The wire buffer comes from the payload pool and its ownership passes to
// the fabric with the message.
func (c *Comm) makeSendReq(buf any, count int, d *Datatype, dest, tag int) (Request, error) {
	if err := c.checkTag(tag); err != nil {
		return Request{}, err
	}
	if dest < 0 || dest >= c.Size() {
		return Request{}, fmt.Errorf("mpi: Isend to rank %d of comm size %d", dest, c.Size())
	}
	p := c.prof()
	var spStart model.Time
	if c.traced {
		spStart = c.stamp()
	}
	sp := c.span("MPI_Isend", spStart)
	n := count * d.Size()
	wire := c.bufs.GetBuf(n)
	encCost, err := d.encodeInto(p, wire, buf, count)
	if err != nil {
		c.bufs.PutBuf(wire)
		return Request{}, fmt.Errorf("mpi: Isend: %w", err)
	}
	c.clock().Advance(p.MPISendOverhead + p.MPIRequestPerItem + encCost + p.InjectTime(n))
	// One stamp serves the injection time, the span end and the event.
	now := c.stamp()
	defer sp.End(now)
	// On the wall clock the payload is observable the moment it is pushed;
	// adding the modelled wire latency would hide it from Iprobe until the
	// virtual latency "elapsed", which wall time never does.
	arrive := now
	if !c.wall {
		arrive += p.MPILatencyBetween(c.rk.ID, c.WorldRank(dest))
	}
	rendezvous := n > p.MPIEagerThreshold
	sr := c.port.Send(c.WorldRank(dest), c.wireTag(tag), wire, arrive, rendezvous)
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvSend, Peer: c.WorldRank(dest), Tag: tag, Bytes: n, V: now})
	return Request{comm: c, send: sr, isSend: true, rendezvous: rendezvous, destWorld: c.WorldRank(dest)}, nil
}

// Send is the blocking send. Under the eager protocol it completes locally
// as soon as the message is injected; a rendezvous-sized message blocks
// until the matching receive is posted, as in real MPI.
func (c *Comm) Send(buf any, count int, d *Datatype, dest, tag int) error {
	r, err := c.makeSendReq(buf, count, d, dest, tag)
	if err != nil {
		return err
	}
	err = r.finishDeadline(c.opDeadline())
	if err != nil && !IsFault(err) {
		return err
	}
	c.clock().AdvanceTo(r.readyV)
	return err
}

// Irecv starts a non-blocking receive of up to count elements of datatype d
// into buf from comm rank source (or AnySource) with the given tag (or
// AnyTag). buf belongs to the operation until the request completes: a
// basic datatype whose storage is its own wire encoding is received in
// place (see makeRecvReq), so its contents are undefined until then.
func (c *Comm) Irecv(buf any, count int, d *Datatype, source, tag int) (*Request, error) {
	return c.irecv(nil, buf, count, d, source, tag)
}

// IrecvInto is Irecv in request storage the caller owns; see IsendInto.
func (c *Comm) IrecvInto(r *Request, buf any, count int, d *Datatype, source, tag int) error {
	_, err := c.irecv(r, buf, count, d, source, tag)
	return err
}

func (c *Comm) irecv(r *Request, buf any, count int, d *Datatype, source, tag int) (*Request, error) {
	r, err := idle(r)
	if err != nil {
		return nil, err
	}
	if *r, err = c.makeRecvReq(buf, count, d, source, tag, true); err != nil {
		return nil, err
	}
	return r, nil
}

// makeRecvReq posts the receive and returns the tracking request by value
// (see makeSendReq for why).
//
// With inPlace, a basic datatype whose storage is its own wire encoding
// (typemap.WireView: not under `purego`, not on a big-endian host) is
// posted on buf's own bytes: the transport's one copy lands the payload
// where it was asked for, and completion neither decodes nor touches the
// payload pool. Anything else is staged through a pooled wire buffer that
// finishDeadline decodes and returns. The modelled charges are computed
// from the delivered byte count either way (a basic type's decode cost is
// 0), so virtual time cannot tell the two apart. The blocking callers
// launder buf and must pass false: a pooled receive handle is a heap object
// and must not point at storage the compiler was told may stay on a stack.
func (c *Comm) makeRecvReq(buf any, count int, d *Datatype, source, tag int, inPlace bool) (Request, error) {
	if err := c.checkTag(tag); err != nil {
		return Request{}, err
	}
	if source != AnySource && (source < 0 || source >= c.Size()) {
		return Request{}, fmt.Errorf("mpi: Irecv from rank %d of comm size %d", source, c.Size())
	}
	if cap, err := ElemCount(buf, d); err != nil {
		return Request{}, fmt.Errorf("mpi: Irecv: %w", err)
	} else if count > cap {
		return Request{}, fmt.Errorf("mpi: Irecv: count %d exceeds buffer capacity %d", count, cap)
	}
	p := c.prof()
	var spStart model.Time
	if c.traced {
		spStart = c.stamp()
	}
	sp := c.span("MPI_Irecv", spStart)
	c.clock().Advance(p.MPIRecvOverhead + p.MPIRequestPerItem)
	now := c.stamp() // shared stamp; see makeSendReq
	defer sp.End(now)
	n := count * d.Size()
	var wire []byte
	if inPlace = inPlace && d.layout == nil; inPlace {
		wire, _, inPlace = typemap.WireView(buf)
	}
	if inPlace {
		wire = wire[:n]
	} else {
		wire = c.bufs.GetBuf(n)
	}
	wtag := transport.AnyTag
	if tag != AnyTag {
		wtag = c.wireTag(tag)
	}
	rr := c.port.PostRecv(c.WorldRank(source), wtag, wire, now)
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvRecvPost, Peer: c.WorldRank(source), Tag: tag, Bytes: n, V: now})
	return Request{comm: c, recv: rr, inPlace: inPlace, wire: wire, recvBuf: buf, recvCount: count, dt: d}, nil
}

// Recv is the blocking receive.
//
// The NoEscape below is sound only because Recv is blocking: the request —
// and with it the reference to buf — lives entirely within this frame, so
// the caller's interface box may stay on its stack. Irecv must NOT launder
// its buffer: its heap request can outlive the caller's frame.
func (c *Comm) Recv(buf any, count int, d *Datatype, source, tag int) (Status, error) {
	r, err := c.makeRecvReq(typemap.NoEscape(buf), count, d, source, tag, false)
	if err != nil {
		return Status{}, err
	}
	err = r.finishDeadline(c.opDeadline())
	if err != nil && !IsFault(err) {
		return Status{}, err
	}
	c.clock().AdvanceTo(r.readyV)
	return r.status, err
}

// Sendrecv performs a combined send and receive, safe against the pairwise
// deadlocks a naive blocking Send+Recv sequence can produce.
func (c *Comm) Sendrecv(
	sbuf any, scount int, sdt *Datatype, dest, stag int,
	rbuf any, rcount int, rdt *Datatype, source, rtag int,
) (Status, error) {
	// Like Recv, the request is kept on this frame's stack by value and is
	// finished before returning, so laundering rbuf is safe here. Going
	// through Irecv instead would be unsound: it copies the request into a
	// heap allocation, and a heap object must not hold a stack-pinned
	// (laundered) buffer reference — the GC would not fix it up if the
	// caller's stack moved while the receive was pending.
	rr, err := c.makeRecvReq(typemap.NoEscape(rbuf), rcount, rdt, source, rtag, false)
	if err != nil {
		return Status{}, err
	}
	if err := c.Send(sbuf, scount, sdt, dest, stag); err != nil {
		return Status{}, err
	}
	if err := rr.finish(); err != nil {
		return Status{}, err
	}
	c.clock().AdvanceTo(rr.readyV)
	return rr.status, nil
}

// Iprobe reports whether a matching message is queued, with its envelope.
func (c *Comm) Iprobe(source, tag int) (Status, bool, error) {
	if err := c.checkTag(tag); err != nil {
		return Status{}, false, err
	}
	c.clock().Advance(c.prof().MPITestEach)
	wsrc := AnySource
	if source != AnySource {
		wsrc = c.WorldRank(source)
	}
	wtag := transport.AnyTag
	if tag != AnyTag {
		wtag = c.wireTag(tag)
	}
	env, ok := c.port.Probe(wsrc, wtag)
	if !ok || env.ArriveV > c.stamp() {
		// Not observable yet in virtual time.
		return Status{}, false, nil
	}
	return Status{Source: c.commRankOf(env.Src), Tag: env.Tag - c.tagBase, Bytes: env.Bytes}, true, nil
}
