package mpi

import (
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

// Isend starts a non-blocking send of count elements of buf (datatype d) to
// comm rank dest with the given tag. Messages up to the profile's eager
// threshold use the eager protocol (buffer reusable on return); larger
// messages use rendezvous and their request completes only when the
// matching receive is posted. Either way the returned request must be
// completed with Wait/Waitall/Test.
func (c *Comm) Isend(buf any, count int, d *Datatype, dest, tag int) (*Request, error) {
	r, err := c.makeSendReq(buf, count, d, dest, tag)
	if err != nil {
		return nil, err
	}
	rp := new(Request)
	*rp = r
	return rp, nil
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
		spStart = c.clock().Now()
	}
	sp := c.span("MPI_Isend", spStart)
	n := count * d.Size()
	wire := transport.GetBuf(n)
	encCost, err := d.encodeInto(p, wire, buf, count)
	if err != nil {
		transport.PutBuf(wire)
		return Request{}, fmt.Errorf("mpi: Isend: %w", err)
	}
	clk := c.clock()
	clk.Advance(p.MPISendOverhead + p.MPIRequestPerItem + encCost + p.InjectTime(n))
	// One clock read serves the injection stamp, the span end, and the
	// event timestamp — in wall mode each read is a monotonic-clock call
	// that would otherwise dominate the eager path.
	now := clk.Now()
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
	c.reqPosted()
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
// AnyTag).
func (c *Comm) Irecv(buf any, count int, d *Datatype, source, tag int) (*Request, error) {
	r, err := c.makeRecvReq(buf, count, d, source, tag)
	if err != nil {
		return nil, err
	}
	rp := new(Request)
	*rp = r
	return rp, nil
}

// makeRecvReq posts the receive and returns the tracking request by value
// (see makeSendReq for why); the staging wire buffer comes from the payload
// pool and goes back in finish().
func (c *Comm) makeRecvReq(buf any, count int, d *Datatype, source, tag int) (Request, error) {
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
		spStart = c.clock().Now()
	}
	sp := c.span("MPI_Irecv", spStart)
	clk := c.clock()
	clk.Advance(p.MPIRecvOverhead + p.MPIRequestPerItem)
	now := clk.Now() // shared read; see makeSendReq
	defer sp.End(now)
	wire := transport.GetBuf(count * d.Size())
	wtag := transport.AnyTag
	if tag != AnyTag {
		wtag = c.wireTag(tag)
	}
	rr := c.port.PostRecv(c.WorldRank(source), wtag, wire, now)
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvRecvPost, Peer: c.WorldRank(source), Tag: tag, Bytes: len(wire), V: now})
	c.reqPosted()
	return Request{comm: c, recv: rr, wire: wire, recvBuf: buf, recvCount: count, dt: d}, nil
}

// Recv is the blocking receive.
//
// The NoEscape below is sound only because Recv is blocking: the request —
// and with it the reference to buf — lives entirely within this frame, so
// the caller's interface box may stay on its stack. Irecv must NOT launder
// its buffer: its heap request can outlive the caller's frame.
func (c *Comm) Recv(buf any, count int, d *Datatype, source, tag int) (Status, error) {
	r, err := c.makeRecvReq(typemap.NoEscape(buf), count, d, source, tag)
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
	rr, err := c.makeRecvReq(typemap.NoEscape(rbuf), rcount, rdt, source, rtag)
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
	if !ok || env.ArriveV > c.clock().Now() {
		// Not observable yet in virtual time.
		return Status{}, false, nil
	}
	return Status{Source: c.commRankOf(env.Src), Tag: env.Tag - c.tagBase, Bytes: env.Bytes}, true, nil
}
