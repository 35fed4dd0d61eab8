package transport

import (
	"sync"
	"sync/atomic"

	"commintent/internal/model"
)

// Payload buffer pooling. Steady-state message traffic recycles its wire
// buffers through size-classed freelists instead of allocating per message:
// a sender takes a buffer with GetBuf, hands ownership to the transport via
// Port.Send, and Complete returns it to the pool once it has copied the
// payload into the posted receive.
//
// The freelists are mutex-guarded stacks of slice headers. sync.Pool would
// box every []byte header into an interface on Put and is emptied by every
// collection; a buffered channel must be sized for the cap up front, which at
// the byte cap below is 1.5 MiB of pointer slots on the heap from init. A
// stack grows its backing array only when a class reaches a new high-water
// mark, so steady-state Get and Put allocate nothing. The trade-off —
// buffers surviving GC — is bounded per class by retained bytes (see
// maxClassRetain).
//
// Ownership caveat for the one-sided plane: memory exposed through an MPI
// window (WinCreate) or registered as symmetric-heap backing must NOT be
// returned with PutBuf while that exposure lives. Window creation resolves
// raw views that alias the backing array for the window's lifetime; a
// recycled buffer would be scribbled on by unrelated pooled traffic. Pooled
// buffers are for transient wire payloads, exposed buffers are caller-owned
// — the two populations must stay disjoint.

const (
	minClassBits = 6  // 64 B
	maxClassBits = 20 // 1 MiB
	numClasses   = maxClassBits - minClassBits + 1

	// Retention is capped by bytes alone, so the process-global pool cannot
	// pin unbounded memory across simulations: each class holds at most
	// maxClassRetain bytes (32 768 buffers of 64 B, two of 1 MiB), ~30 MiB
	// over all classes. A count cap would make a class's hit rate depend on
	// how many sends happen to be in flight at once: a 256-rank halo op has
	// 512 256-B sends outstanding.
	maxClassRetain = 2 << 20
)

// bufClass is one size class's freelist, padded to a cache line.
type bufClass struct {
	mu   sync.Mutex
	free [][]byte
	_    [32]byte
}

var bufClasses [numClasses]bufClass

// Pool traffic counters, surfaced through PoolStats for telemetry.
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

// GetBuf returns a length-n byte buffer, reusing a pooled one when
// available. The buffer's capacity is the size class, so PutBuf can route
// it home. Oversized requests fall back to plain allocation.
func GetBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		poolMisses.Add(1)
		return make([]byte, n)
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if k := len(cl.free) - 1; k >= 0 {
		b := cl.free[k]
		cl.free[k] = nil
		cl.free = cl.free[:k]
		cl.mu.Unlock()
		poolHits.Add(1)
		return b[:n]
	}
	cl.mu.Unlock()
	poolMisses.Add(1)
	return make([]byte, n, 1<<(minClassBits+c))
}

// PutBuf returns a buffer to its freelist. b must have come from GetBuf —
// directly, or via Port.Send's ownership transfer — and the caller must
// not retain a reference afterwards. PutBuf routes by capacity alone, so a
// foreign buffer whose capacity happens to be an exact class size would be
// adopted into the pool while its original owner still holds it, and a
// later GetBuf would hand out an aliased buffer: silent cross-message
// corruption. Buffers whose capacity is not an exact class size (oversized
// GetBuf allocations fall out here) or whose class freelist is full are
// dropped for the GC.
func PutBuf(b []byte) {
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(minClassBits+c) {
		return
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if len(cl.free) < maxClassRetain>>(minClassBits+c) {
		cl.free = append(cl.free, b[:cap(b)])
	}
	cl.mu.Unlock()
}

// PoolStats reports the process-lifetime payload-pool hit and miss counts.
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// Headers recycles one port's message headers and receive handles, so the
// steady-state send and receive paths allocate nothing, and holds the
// port's Gate (the port calls Gate.Init). Each port embeds one and no path
// takes a lock. Receive handles are drawn and released by the posting
// goroutine alone: an owner-only stack. An eager header is
// drawn by its sender and completed wherever it was matched; the completer
// pushes it onto the sender's return stack with a CAS, and the sender takes
// the whole stack with one Swap when its own runs dry — the shm mailbox's
// pattern, so there is no ABA. sync.Pool is not used: at two Ps its per-P
// caches missed whenever a header was freed on the other P (DESIGN §9.2).
type Headers struct {
	recvs []*Recv // owner only
	msgs  *Msg    // owner only: free eager headers, linked through Next

	// ret is the one word other goroutines write: padded off the owner's.
	_   [56]byte
	ret atomic.Pointer[Msg] // completed eager headers, pushed by completers

	Gate Gate // where the port's owner parks
}

// NewMsg returns a message header for one send from the owning port. Only
// eager headers are recycled: a rendezvous sender keeps its handle across
// the match (and possibly a cancellation). Owner goroutine only.
func (h *Headers) NewMsg(src, tag int, data []byte, arriveV model.Time, rendezvous bool) *Msg {
	var m *Msg
	if rendezvous {
		m = &Msg{gate: &h.Gate}
	} else {
		if h.msgs == nil {
			h.msgs = h.ret.Swap(nil)
		}
		if m = h.msgs; m == nil {
			m = new(Msg)
		}
		h.msgs, m.Next, m.home = m.Next, nil, h
	}
	m.Src, m.Tag, m.Data, m.ArriveV = src, tag, data, arriveV
	return m
}

// putMsg returns a completed eager header to its sender's port.
func putMsg(m *Msg) {
	h := m.home
	*m = Msg{}
	for {
		m.Next = h.ret.Load()
		if h.ret.CompareAndSwap(m.Next, m) {
			return
		}
	}
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
