// Package shmtransport is the in-process parallel shared-memory transport:
// the second lowering target behind the transport.Port interface, where rank
// goroutines run truly parallel across Ps and completion is real sync/atomic
// instead of virtual-time replay.
//
// Matching is transport.Table's, and waiting transport.Gate's; this package
// is the table's feeder and the gate's waker. Feeding: one mailbox per rank. Senders push message nodes onto
// the destination's lock-free intrusive LIFO (one CAS per send, no locks, no
// channels); the receiver drains the mailbox with a single atomic swap,
// reverses the batch to restore arrival order, and offers each node to its
// *private* table. The table needs no lock at all because only the owning
// rank posts, probes and waits — the SPMD invariant the simnet endpoint
// spends a mutex re-establishing on every delivery.
//
// Waiting is the one wait (transport.Gate) both ways: a rank on its run
// loop yields on the port's gate, and any other waiter parks there; a sender
// wakes it only after the receiver has announced the wait, so the
// steady-state message path performs no allocation and no park/unpark pair. Payload buffers are the port's pooled
// wire buffers (transport.Headers.GetBuf/PutBuf), so the zero-copy pack
// paths above are unchanged.
//
// A sender withdraws a rendezvous message by winning the message's state
// word (transport.Msg.Withdraw) wherever the node sits — mailbox or table —
// and the owner drops the dead node at its next progress step. There is no
// fault injector and no canonical-cost replay here.
package shmtransport

import (
	"fmt"
	"sync/atomic"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// Port is one rank's mailbox plus its private match table. The mailbox
// head, which senders hammer, is padded off the owner's words.
type Port struct {
	net  *Net
	rank int

	_     [64]byte
	inbox atomic.Pointer[transport.Msg]
	_     [56]byte
	dead  uint32 // atomic: a sender has withdrawn a message bound here

	// Receiver-private; owner goroutine only.
	tab     transport.Table
	drainHW int // deepest single mailbox drain (occupancy high-watermark)

	hdr transport.Headers // this rank's recycled headers, handles and gate
}

// Net is one in-process interconnect: n mailboxes.
type Net struct {
	ports []*Port
}

// New creates an n-rank shared-memory interconnect.
func New(n int) *Net {
	if n <= 0 {
		panic(fmt.Sprintf("shmtransport: net size %d", n))
	}
	net := &Net{ports: make([]*Port, n)}
	arena := make([]Port, n)
	for i := range net.ports {
		arena[i].net = net
		arena[i].rank = i
		net.ports[i] = &arena[i]
	}
	return net
}

// Size reports the number of ranks.
func (net *Net) Size() int { return len(net.ports) }

// Port returns rank r's port.
func (net *Net) Port(r int) *Port { return net.ports[r] }

// Rank implements transport.Port.
func (p *Port) Rank() int { return p.rank }

// push publishes a node to this (destination) port's mailbox and wakes the
// receiver if it announced intent to park. Runs on the sender's goroutine.
func (p *Port) push(m *transport.Msg) {
	for {
		old := p.inbox.Load()
		m.Next = old
		if p.inbox.CompareAndSwap(old, m) {
			break
		}
	}
	p.hdr.Gate.Wake()
}

// Send implements transport.Port: ownership of data transfers to the
// transport (it returns to the buffer pool once copied out). LocalV echoes
// arriveV — on this transport both are the caller's wall reading.
func (p *Port) Send(dst, tag int, data []byte, arriveV model.Time, rendezvous bool) transport.SendResult {
	if dst < 0 || dst >= len(p.net.ports) {
		panic(fmt.Sprintf("shmtransport: send to rank %d of %d", dst, len(p.net.ports)))
	}
	m := p.hdr.NewMsg(p.rank, tag, data, arriveV, rendezvous)
	res := transport.SendResult{LocalV: arriveV}
	if rendezvous {
		res.Msg = m
	}
	p.net.ports[dst].push(m)
	return res
}

// drain is the owner's progress step: if a sender has withdrawn a message
// since the last one, sweep the dead out of the table, so a won CancelMsg
// stops counting as pending here (on simnet it leaves the queue at once);
// then swallow the mailbox with one swap, restore arrival order, and file
// each node. Reports whether any node was processed. Owner goroutine only.
func (p *Port) drain() bool {
	if atomic.LoadUint32(&p.dead) != 0 {
		// Cleared before the sweep, so a withdrawal that races with it raises
		// the flag again instead of being lost. The sweep is O(queued), which
		// is why it waits for a withdrawal instead of running at every step.
		atomic.StoreUint32(&p.dead, 0)
		p.tab.RemoveMsgs((*transport.Msg).Withdrawn)
	}
	m := p.inbox.Swap(nil)
	if m == nil {
		return false
	}
	// The mailbox is LIFO; reverse the batch to restore per-sender FIFO
	// (MPI's non-overtaking guarantee) and cross-sender arrival order.
	var head *transport.Msg
	count := 0
	for m != nil {
		nxt := m.Next
		m.Next = head
		head = m
		m = nxt
		count++
	}
	if count > p.drainHW {
		p.drainHW = count
	}
	for head != nil {
		m := head
		head = head.Next
		m.Next = nil
		p.accept(m)
	}
	return true
}

// accept files one arrived node. Owner goroutine only.
func (p *Port) accept(m *transport.Msg) {
	if m.Withdrawn() {
		// Dead on arrival: never filed, so never counted as pending and
		// never part of a high-watermark.
		return
	}
	if r := p.tab.Arrive(m); r != nil && !transport.Complete(r, m) {
		// The sender withdrew the message between the check above and the
		// claim; the receive goes back where Arrive took it from.
		p.tab.Repost(r)
	}
}

// PostRecv implements transport.Port. Owner goroutine only.
func (p *Port) PostRecv(src, tag int, buf []byte, postV model.Time) *transport.Recv {
	if src != transport.AnySource && (src < 0 || src >= len(p.net.ports)) {
		panic(fmt.Sprintf("shmtransport: recv from rank %d of %d", src, len(p.net.ports)))
	}
	r := p.hdr.NewRecv(p, src, tag, buf, postV)
	p.drain()
	for {
		// A message withdrawn since the drain fails its claim; the receive
		// then takes the next candidate, and is filed once there is none.
		m := p.tab.Post(r)
		if m == nil || transport.Complete(r, m) {
			return r
		}
	}
}

// Poll implements transport.Poller: one non-blocking progress step. A
// receive's wait runs it on the port's gate, between re-checks; a push wakes
// the gate, so the re-check after the gate's announcement drains whatever
// the push published. Completion happens on this goroutine, inside drain,
// so a completed receive has no other toucher.
func (p *Port) Poll() { p.drain() }

// Probe implements transport.Port. Owner goroutine only. The envelope is
// advisory: on a parallel transport a concurrent withdrawal can invalidate
// it, exactly as a concurrent matching receive could on real hardware.
func (p *Port) Probe(src, tag int) (transport.Envelope, bool) {
	p.drain()
	return p.tab.Probe(src, tag)
}

// CancelRecv implements transport.Port: trivially race-free here because
// the table is receiver-private. Owner goroutine only.
func (p *Port) CancelRecv(r *transport.Recv) bool {
	p.drain()
	if !p.tab.RemoveRecv(r) {
		return false
	}
	transport.CompleteCancelled(r)
	return true
}

// CancelMsg implements transport.Port: the sender withdraws its own
// rendezvous message wherever it sits (mailbox or unexpected queue) by
// winning its state word, and tells dst's owner to drop the dead node at its
// next progress step. On a win the payload buffer returns to the pool — the
// receiver is guaranteed never to touch it, because it only reads payloads
// after winning the same word.
func (p *Port) CancelMsg(dst int, m *transport.Msg) bool {
	if !m.Withdraw() {
		return false
	}
	atomic.StoreUint32(&p.net.ports[dst].dead, 1)
	return true
}

// PendingUnexpected implements transport.Port (owner goroutine, or
// quiescent net).
func (p *Port) PendingUnexpected() int {
	p.drain()
	return p.tab.Unexpected()
}

// Headers implements transport.Port.
func (p *Port) Headers() *transport.Headers { return &p.hdr }

// PendingPosted implements transport.Port.
func (p *Port) PendingPosted() int { return p.tab.Posted() }

// UnexpectedHighWatermark implements transport.Port.
func (p *Port) UnexpectedHighWatermark() int { return p.tab.UnexpectedHighWatermark() }

// MailboxHighWatermark reports the deepest single mailbox drain this port
// has performed — how far senders ran ahead of the receiver's progress
// loop. Only meaningful on a quiescent net.
func (p *Port) MailboxHighWatermark() int { return p.drainHW }
