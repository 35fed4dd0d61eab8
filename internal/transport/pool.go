package transport

import (
	"sync"
	"sync/atomic"
)

// Payload buffer pooling. Steady-state message traffic recycles its wire
// buffers through size-classed freelists instead of allocating per message:
// a sender takes a buffer with GetBuf, hands ownership to the transport via
// Port.Send, and Complete returns it to the pool once it has copied the
// payload into the posted receive.
//
// The freelists are buffered channels rather than sync.Pool: a chan []byte
// stores slice headers inline, so Get and Put are allocation-free, whereas
// sync.Pool would box every []byte header into an interface on Put. The
// trade-off — buffers surviving GC — is bounded per class both by buffer
// count and by retained bytes (see classDepth).
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

	// Retention is capped two ways so the process-global pool cannot pin
	// unbounded memory across simulations: at most maxClassDepth buffers
	// per class, and at most maxClassRetain bytes per class. Small classes
	// hit the depth cap (64 B × 128 = 8 KiB); large classes hit the byte
	// cap (the 1 MiB class retains 4 buffers). Worst-case total retention
	// is ~28 MiB, versus the ~250 MiB a uniform depth of 128 would allow.
	maxClassDepth  = 128
	maxClassRetain = 4 << 20
)

var bufClasses [numClasses]chan []byte

// classDepth returns the freelist capacity for class c: the depth cap or
// the byte cap, whichever binds first.
func classDepth(c int) int {
	depth := maxClassRetain >> (minClassBits + c)
	if depth > maxClassDepth {
		depth = maxClassDepth
	}
	if depth < 1 {
		depth = 1
	}
	return depth
}

func init() {
	for i := range bufClasses {
		bufClasses[i] = make(chan []byte, classDepth(i))
	}
}

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
	select {
	case b := <-bufClasses[c]:
		poolHits.Add(1)
		return b[:n]
	default:
		poolMisses.Add(1)
		return make([]byte, n, 1<<(minClassBits+c))
	}
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
	select {
	case bufClasses[c] <- b[:cap(b)]:
	default:
	}
}

// PoolStats reports the process-lifetime payload-pool hit and miss counts.
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// msgPool recycles Msg headers. Only eager messages are pooled: a
// rendezvous sender keeps a reference to its Msg to read MatchV after the
// handshake (and possibly to cancel it), so those must stay heap-owned
// until the sender drops them.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

func putMsg(m *Msg) { *m = Msg{}; msgPool.Put(m) }

// recvPool recycles receive handles, which is what makes the steady-state
// receive path allocation-free. A handle keeps its wait strategy's Token
// channel across cycles (see Recv.Release).
var recvPool = sync.Pool{New: func() any { return new(Recv) }}
