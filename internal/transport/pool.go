package transport

import (
	"sync/atomic"

	"commintent/internal/model"
)

// Payload buffer pooling. Steady-state message traffic recycles its wire
// buffers through size-classed freelists instead of allocating per message.
// Each port keeps its own (Headers.GetBuf/PutBuf), so no step of a send,
// its match or its completion takes a lock or touches a word another port
// writes: a buffer its owner frees goes on an owner-only stack; an eager
// payload rides home on its header through the header return stack; a
// rendezvous sender takes its payload back once the match has copied it
// out (Msg.WaitMatched). A port keeps at most as many buffers of a class as
// it has drawn from the shared pool, so memory it never asked for — the
// buffers of a caller that sends from the shared pool directly — goes back
// there, and its working set stays bounded by what it once had in flight.
//
// The shared pool (GetBuf/PutBuf) is the ports' fallback and the pool of
// callers without a port. Each class is a buffered channel, made at its
// first use, that holds at most sharedRetain bytes (and between 2 and
// maxShared buffers). A channel moves a slice header by value, so Get and
// Put allocate nothing, and it needs no lock of ours.
//
// Ownership caveat for the one-sided plane: memory exposed through an MPI
// window (WinCreate) or registered as symmetric-heap backing must NOT be
// returned to a pool while that exposure lives. Window creation resolves
// raw views that alias the backing array for the window's lifetime; a
// recycled buffer would be scribbled on by unrelated pooled traffic. Pooled
// buffers are for transient wire payloads, exposed buffers are caller-owned
// — the two populations must stay disjoint.

const (
	minClassBits = 6  // 64 B
	maxClassBits = 20 // 1 MiB
	numClasses   = maxClassBits - minClassBits + 1

	// The shared pool retains at most sharedRetain bytes per class, and
	// never fewer than two or more than maxShared buffers.
	sharedRetain = 2 << 20
	maxShared    = 4096

	// flushHits is how many hits a port counts before it publishes them
	// to PoolStats.
	flushHits = 64
)

// shared holds each class's channel once made.
var shared [numClasses]atomic.Pointer[chan []byte]

// Pool traffic counters, surfaced through PoolStats for telemetry. Ports
// publish their hits in batches of flushHits.
var (
	poolHits   atomic.Int64
	poolMisses atomic.Int64
)

// classFor returns the index of the smallest size class holding n bytes,
// or -1 when n is outside the pooled range.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for n > 1<<(minClassBits+c) {
		c++
	}
	return c
}

// classOf returns the class b's capacity is exactly the size of, or -1.
func classOf(b []byte) int {
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(minClassBits+c) {
		return -1
	}
	return c
}

// sharedClass returns class c's channel, making it on first use.
func sharedClass(c int) chan []byte {
	if p := shared[c].Load(); p != nil {
		return *p
	}
	ch := make(chan []byte, min(max(sharedRetain>>(minClassBits+c), 2), maxShared))
	shared[c].CompareAndSwap(nil, &ch)
	return *shared[c].Load()
}

// GetBuf returns a length-n byte buffer from the shared pool, allocating
// when the class is empty. The buffer's capacity is the size class, so
// PutBuf can route it home. Oversized requests fall back to plain
// allocation.
func GetBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		poolMisses.Add(1)
		return make([]byte, n)
	}
	select {
	case b := <-sharedClass(c):
		poolHits.Add(1)
		return b[:n]
	default:
	}
	poolMisses.Add(1)
	return make([]byte, n, 1<<(minClassBits+c))
}

// PutBuf returns a buffer to the shared pool. b must have come from a pool
// — directly, or via Port.Send's ownership transfer — and the caller must
// not retain a reference afterwards. PutBuf routes by capacity alone, so a
// foreign buffer whose capacity happens to be an exact class size would be
// adopted into the pool while its original owner still holds it, and a
// later GetBuf would hand out an aliased buffer: silent cross-message
// corruption. Buffers whose capacity is not an exact class size (oversized
// GetBuf allocations fall out here) or whose class is full are dropped for
// the GC.
func PutBuf(b []byte) {
	c := classOf(b)
	if c < 0 {
		return
	}
	select {
	case sharedClass(c) <- b[:cap(b)]:
	default:
	}
}

// PoolStats reports the process-lifetime payload-pool hit and miss counts.
// A port's hits appear in batches of flushHits, and all of them when
// Headers.FlushPoolStats runs (spmd does at the end of every World.Run).
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// Headers recycles one port's message headers, receive handles and wire
// buffers, so the steady-state send and receive paths allocate nothing,
// and holds the port's Gate (the port calls Gate.Init). Each port embeds
// one and no path takes a lock. Receive handles and freed buffers are drawn
// and released by the owning goroutine alone: owner-only stacks. An eager
// header, with its payload, is drawn by its sender and completed wherever
// it was matched; the completer pushes it onto the sender's return stack
// with a CAS, and the sender takes the whole stack with one Swap when its
// own runs dry — the shm mailbox's pattern, so there is no ABA. sync.Pool
// is not used: at two Ps its per-P caches missed whenever a header was
// freed on the other P (DESIGN §9.2).
type Headers struct {
	recvs []*Recv               // owner only
	msgs  *Msg                  // owner only: free eager headers, linked through Next
	bufs  *[numClasses]bufStack // owner only: made at the first buffer
	hits  int                   // owner only: hits not yet in PoolStats

	// ret is the one word other goroutines write: padded off the owner's.
	_   [64]byte
	ret atomic.Pointer[Msg] // completed eager headers, pushed by completers

	Gate Gate // where the port's owner parks
}

// bufStack is one class of a port's free buffers.
type bufStack struct {
	free  [][]byte
	drawn int // buffers this port has taken from the shared pool
}

// NewMsg returns a message header for one send from the owning port. Only
// eager headers are recycled: a rendezvous sender keeps its handle across
// the match (and possibly a cancellation). Owner goroutine only.
func (h *Headers) NewMsg(src, tag int, data []byte, arriveV model.Time, rendezvous bool) *Msg {
	var m *Msg
	if rendezvous {
		m = &Msg{rdv: true}
	} else {
		if h.msgs == nil {
			h.harvest()
		}
		if m = h.msgs; m == nil {
			m = new(Msg)
		}
		h.msgs, m.Next = m.Next, nil
	}
	m.home = h
	m.Src, m.Tag, m.Data, m.ArriveV = src, tag, data, arriveV
	return m
}

// harvest takes back every eager header completers have returned, and the
// payload each carries.
func (h *Headers) harvest() {
	for m := h.ret.Swap(nil); m != nil; {
		next := m.Next
		if m.Data != nil {
			h.PutBuf(m.Data)
			m.Data = nil
		}
		m.Next, h.msgs = h.msgs, m
		m = next
	}
}

// putMsg returns a completed eager header to its sender's port, carrying
// its payload home.
func putMsg(m *Msg) {
	h, data := m.home, m.Data
	*m = Msg{Data: data}
	for {
		m.Next = h.ret.Load()
		if h.ret.CompareAndSwap(m.Next, m) {
			return
		}
	}
}

// GetBuf is the shared GetBuf served from the port's own buffers first.
// Owner goroutine only.
func (h *Headers) GetBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return GetBuf(n)
	}
	if h.bufs == nil {
		h.bufs = new([numClasses]bufStack)
	}
	s := &h.bufs[c]
	if len(s.free) == 0 {
		h.harvest()
	}
	if k := len(s.free) - 1; k >= 0 {
		b := s.free[k]
		s.free[k] = nil
		s.free = s.free[:k]
		if h.hits++; h.hits == flushHits {
			h.FlushPoolStats()
		}
		return b[:n]
	}
	s.drawn++
	return GetBuf(n)
}

// PutBuf returns a buffer to the port: onto its class's stack while the
// port holds fewer than it has drawn, else to the shared pool. The
// ownership contract is PutBuf's. Owner goroutine only.
func (h *Headers) PutBuf(b []byte) {
	c := classOf(b)
	if c < 0 {
		return
	}
	if h.bufs != nil {
		if s := &h.bufs[c]; len(s.free) < s.drawn {
			s.free = append(s.free, b[:cap(b)])
			return
		}
	}
	PutBuf(b)
}

// FlushPoolStats publishes the port's uncounted hits to PoolStats. Owner
// goroutine only, or once the owner has stopped.
func (h *Headers) FlushPoolStats() {
	poolHits.Add(int64(h.hits))
	h.hits = 0
}

// NewRecv draws a receive handle for the pattern (src|AnySource,
// tag|AnyTag) whose progress step is p. Owner goroutine only.
func (h *Headers) NewRecv(p Poller, src, tag int, buf []byte, postV model.Time) *Recv {
	var r *Recv
	if k := len(h.recvs) - 1; k >= 0 {
		r, h.recvs = h.recvs[k], h.recvs[:k]
	} else {
		r = &Recv{home: h}
	}
	r.p = p
	r.src, r.tag, r.buf, r.postV = src, tag, buf, postV
	return r
}
