package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// Endpoint is one rank's attachment to the fabric, and simnet's
// transport.Port. All methods that mutate the endpoint's own state must be
// called from that rank's goroutine.
//
// Matching itself is transport.Table's, and waiting transport.Gate's; the
// endpoint is the table's feeder and the gate's waker. Feeding: a send runs the destination's table on the
// *sender's* goroutine, under the destination's mutex, so a message is
// matched or queued the moment it is sent and per-pair FIFO is the senders'
// program order. Waiting: the posting rank parks on its port's gate
// (transport.Gate), which the completer wakes once the receive is published.
type Endpoint struct {
	f    *Fabric
	rank int

	clock model.Clock

	// mu protects tab (and seen), because remote senders deliver into
	// them. A plain sync.Mutex: the old chan-based binary semaphore cost two
	// channel operations per critical section and queued every contended
	// sender through the scheduler, which serialised delivery fan-in at
	// high rank counts.
	mu  sync.Mutex
	tab transport.Table

	hdr transport.Headers // this rank's recycled headers, handles and buffers

	// region is the interned ID of the directive region the rank is
	// currently executing (0 between regions). Written by the owning rank
	// goroutine at region entry/exit; read atomically by that goroutine's
	// emission sites and by cross-goroutine introspection (the live /ranks
	// endpoint), which is why it is not a plain int.
	region atomic.Int64

	// Fault-injection state. flt is sender-side (per destination link;
	// touched only by this rank's goroutine, which is what keeps the link
	// sequence numbers deterministic). seen is receiver-side (per source
	// dedupe windows; guarded by mu). Both stay nil on a healthy fabric.
	flt  []linkFault
	seen []seqWindow
}

// Rank reports this endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Clock returns the rank's virtual clock. Only the owning rank goroutine
// may use it.
func (ep *Endpoint) Clock() *model.Clock { return &ep.clock }

// SetRegion records the interned directive-region ID the rank is executing
// (see Fabric.InternRegion); the substrates stamp it onto every event and
// span they emit. Pass 0 when leaving a region. Only the owning rank
// goroutine should call it.
func (ep *Endpoint) SetRegion(id int) { ep.region.Store(int64(id)) }

// RegionID reports the region ID last set by SetRegion. Safe from any
// goroutine.
func (ep *Endpoint) RegionID() int { return int(ep.region.Load()) }

// Send implements transport.Port: it injects a message destined for rank
// dst whose payload buffer's ownership transfers to the fabric. data must
// not be touched by the caller afterwards, and goes back to this endpoint's
// buffers (see transport.Headers) once the matching receive has copied it
// out.
// arriveV is the virtual time at which the payload is available at the
// destination, computed by the caller from its cost model. Delivery —
// matching against dst's posted receives — happens immediately in real time.
func (ep *Endpoint) Send(dst, tag int, data []byte, arriveV model.Time, rendezvous bool) transport.SendResult {
	if dst < 0 || dst >= ep.f.n {
		panic(fmt.Sprintf("simnet: send to rank %d of %d", dst, ep.f.n))
	}
	m := ep.hdr.NewMsg(ep.rank, tag, data, arriveV, rendezvous)
	res := transport.SendResult{LocalV: ep.clock.Now()}
	if rendezvous {
		res.Msg = m
	}
	// The injector's verdict is captured from the call rather than read
	// off m afterwards: an eager pooled message may already be recycled.
	if ep.f.inj == nil {
		ep.f.eps[dst].deliver(m)
	} else {
		res.Fault = ep.inject(dst, m)
	}
	return res
}

// deliver matches m against the destination's posted receives or queues it
// as unexpected. Runs on the sender's goroutine. Eager pooled messages may
// be recycled before this returns, so callers must not touch m afterwards.
func (ep *Endpoint) deliver(m *transport.Msg) {
	ep.mu.Lock()
	if m.HasSeq {
		if ep.seen == nil {
			ep.seen = make([]seqWindow, ep.f.n)
		}
		if ep.seen[m.Src].seen(m.LinkSeq) {
			// Duplicate copy: discard before matching. Injected duplicates
			// are payload-free rendezvous-style headers, so there is nothing
			// to hand back to the pools.
			ep.mu.Unlock()
			if inj := ep.f.inj; inj != nil {
				inj.deduped.Add(1)
			}
			return
		}
	}
	r := ep.tab.Arrive(m)
	ep.mu.Unlock()
	if r != nil {
		ep.complete(r, m)
	}
}

// complete finishes a pair the table matched for this (destination)
// endpoint and wakes its owner. The wake goes to the endpoint's gate, not
// the handle, which the owner may recycle once Complete has published it.
func (ep *Endpoint) complete(r *transport.Recv, m *transport.Msg) {
	if !transport.Complete(r, m) {
		// CancelMsg decides withdrawals under the destination's lock, by
		// table membership, so a message the table handed out is live.
		panic("simnet: matched message was withdrawn outside the endpoint lock")
	}
	ep.hdr.Gate.Wake()
}

// Poll implements transport.Poller. It has nothing to do: senders make all
// the progress there is.
func (ep *Endpoint) Poll() {}

// PostRecv implements transport.Port: it posts a receive for a message from
// src (or AnySource) with tag (or AnyTag). The payload will be copied into
// buf (truncated to len(buf) if larger, mirroring MPI's contract that the
// receive count is an upper bound). postV is the receiver's virtual time of
// the posting.
func (ep *Endpoint) PostRecv(src, tag int, buf []byte, postV model.Time) *transport.Recv {
	if src != transport.AnySource && (src < 0 || src >= ep.f.n) {
		panic(fmt.Sprintf("simnet: recv from rank %d of %d", src, ep.f.n))
	}
	r := ep.hdr.NewRecv(ep, src, tag, buf, postV)
	ep.mu.Lock()
	m := ep.tab.Post(r)
	ep.mu.Unlock()
	if m != nil {
		ep.complete(r, m)
	}
	return r
}

// CancelRecv implements transport.Port: it withdraws a posted-but-unmatched
// receive, completing it with FaultCancelled, and reports whether the
// cancellation won. A false return means a sender's delivery got there first
// (or is completing concurrently: the table already handed the receive out
// and complete() is in flight) — the owner must then consume the normal
// completion with Wait. It is the last-resort escape hatch, typically after
// WaitTimeout expired, for traffic that was never sent at all.
func (ep *Endpoint) CancelRecv(r *transport.Recv) bool {
	ep.mu.Lock()
	won := ep.tab.RemoveRecv(r)
	ep.mu.Unlock()
	if won {
		transport.CompleteCancelled(r)
	}
	return won
}

// CancelMsg implements transport.Port: it withdraws this rank's own
// rendezvous message from dst's unexpected queue, typically after
// WaitMatchedTimeout expired, and reports whether the withdrawal won; false
// means a matching receive already took it (or is completing concurrently)
// and the sender must finish the handshake normally. Under dst's lock the
// table's answer is final, so the message leaves the queue at once.
func (ep *Endpoint) CancelMsg(dst int, m *transport.Msg) bool {
	dep := ep.f.eps[dst]
	dep.mu.Lock()
	won := dep.tab.RemoveMsg(m)
	dep.mu.Unlock()
	return won && m.Withdraw()
}

// Probe implements transport.Port: it reports whether a matching message is
// queued (without receiving it) and, if so, its envelope — a copy taken under
// the lock, since the message can complete and be recycled the moment the
// lock is released.
func (ep *Endpoint) Probe(src, tag int) (transport.Envelope, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.tab.Probe(src, tag)
}

// PendingUnexpected reports the number of queued unexpected messages.
// Useful for leak checks in tests.
func (ep *Endpoint) PendingUnexpected() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.tab.Unexpected()
}

// UnexpectedHighWatermark reports the deepest the unexpected-message queue
// has ever been.
func (ep *Endpoint) UnexpectedHighWatermark() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.tab.UnexpectedHighWatermark()
}

// Headers implements transport.Port.
func (ep *Endpoint) Headers() *transport.Headers { return &ep.hdr }

// PendingPosted reports the number of posted-but-unmatched receives.
func (ep *Endpoint) PendingPosted() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.tab.Posted()
}
