package transport

import (
	"sync/atomic"
	"time"

	"commintent/internal/model"
)

// Rendezvous handshake states. A plain uint32 manipulated atomically (not
// atomic.Uint32), like every other cross-goroutine word of Msg and Recv:
// recycled headers are reset by struct assignment, which go vet would flag as
// a lock copy if the fields carried noCopy sentinels.
const (
	stateQueued uint32 = iota
	stateMatched
	stateWithdrawn
)

// Msg is one in-flight two-sided message: the entry the match Table files
// and, for a rendezvous send, the handle the sender keeps. Whoever holds it
// — the sender until it is handed to the destination's feeder, the feeder
// until Table.Arrive, the table until a receive takes it — owns the exported
// fields exclusively.
type Msg struct {
	Src, Tag int
	Data     []byte     // payload; owned by the transport after Port.Send
	ArriveV  model.Time // timestamp at which the payload is on the target
	Fault    FaultKind  // non-None marks a ghost: a payload-free fault carrier

	// Feeder-owned; the table never reads them. Next links messages in
	// whatever intrusive structure carries them to the destination (shm's
	// mailbox). LinkSeq numbers the message on its (src,dst) link when
	// HasSeq (simnet's dedupe window keys on it).
	Next    *Msg
	LinkSeq uint64
	HasSeq  bool

	// home is where an eager header returns at completion, which is safe
	// because no eager sender awaits the match; nil for rendezvous. gate is
	// a rendezvous sender's port gate, which Complete wakes.
	home *Headers
	gate *Gate

	// The rendezvous handshake resolves through one state word: queued →
	// matched (the receiver claims, in Complete) or queued → withdrawn (the
	// sender gives up after a deadline); whoever wins the CAS owns the
	// outcome and the payload.
	state  uint32
	matchV model.Time // set before the matched CAS publishes it

	// Absolute positions in the table's unexpected FIFO and per-(src,tag)
	// bucket, so the message can be removed from both in O(1) when it is
	// plucked out of the middle.
	fifoPos, bucketPos int
}

// Rendezvous reports whether the sender kept a handle on this message.
func (m *Msg) Rendezvous() bool { return m.home == nil }

// Ghost strips m to a payload-free carrier of fault k: the matching receive
// completes promptly with the fault recorded instead of hanging. The payload
// goes back to the pool here (the receive will copy zero bytes).
func (m *Msg) Ghost(k FaultKind) {
	PutBuf(m.Data)
	m.Data = nil
	m.Fault = k
}

// Envelope is the value-copied metadata of a queued message, as reported by
// Probe. Copying out (rather than exposing the *Msg) keeps probing safe
// against payload pooling: by the time the caller looks, the message may
// have been matched and its buffer recycled.
type Envelope struct {
	Src, Tag int
	Bytes    int
	ArriveV  model.Time
}

// Envelope copies m's metadata out; the caller must still own m's fields.
func (m *Msg) Envelope() Envelope {
	return Envelope{Src: m.Src, Tag: m.Tag, Bytes: len(m.Data), ArriveV: m.ArriveV}
}

// IsMatched reports, without blocking, whether a receive has claimed this
// message.
func (m *Msg) IsMatched() bool { return atomic.LoadUint32(&m.state) == stateMatched }

// Withdrawn reports whether the sender's Withdraw won.
func (m *Msg) Withdrawn() bool { return atomic.LoadUint32(&m.state) == stateWithdrawn }

// Withdraw is the sender's side of the cancellation race: it reports whether
// the message was still unclaimed, in which case no receive will ever touch
// it and its payload goes back to the pool. Transports call it from
// Port.CancelMsg.
func (m *Msg) Withdraw() bool {
	if !atomic.CompareAndSwapUint32(&m.state, stateQueued, stateWithdrawn) {
		return false
	}
	PutBuf(m.Data)
	return true
}

// WaitMatched blocks until a receive claims this message — the rendezvous
// protocol's handshake. Only the sending goroutine may call it.
func (m *Msg) WaitMatched() { m.gate.Wait(m.IsMatched, 0) }

// WaitMatchedTimeout is WaitMatched bounded by real-time duration d. It
// reports whether the match arrived; on false the message is still pending
// (withdraw it with Port.CancelMsg, then re-check). Only the sending
// goroutine may call it.
func (m *Msg) WaitMatchedTimeout(d time.Duration) bool { return m.gate.Wait(m.IsMatched, d) }

// MatchV reports the timestamp of the match: the later of the message's
// arrival and the receive posting. Only valid once IsMatched reports true
// (or WaitMatched has returned).
func (m *Msg) MatchV() model.Time { return m.matchV }

// Poller is a transport's progress step for posted receives: Poll makes
// whatever progress is possible without blocking (shm drains the port's
// mailbox; on simnet the senders make all the progress there is).
type Poller interface{ Poll() }

// Recv tracks one posted receive from PostRecv to Release: the pattern and
// buffer the match Table files, the completion record, and the transport's
// progress step. Only the posting goroutine may use it. Handles
// are recycled per port (Port.PostRecv draws one, Release returns it).
type Recv struct {
	src, tag int
	buf      []byte
	postV    model.Time
	postSeq  uint64 // table-wide posting order, for wildcard-bucket ties

	// Completion record, cached by Complete so it survives the matched
	// message's return to the pools. Valid once done is set.
	done    uint32 // atomic: the completer may be another goroutine
	n       int
	srcRank int
	tagVal  int
	arriveV model.Time
	fault   FaultKind // non-None when completed by a ghost or a cancellation

	p    Poller
	home *Headers // the posting port's store and gate; Release returns it there
}

// Wait blocks until the receive has been matched and the payload copied
// into the posted buffer. It is idempotent.
func (r *Recv) Wait() { r.WaitTimeout(0) }

// WaitTimeout is Wait bounded by real-time duration d (unbounded when d is
// not positive): it reports whether the receive completed. On false the
// receive is still posted; the owner must either keep waiting or withdraw it
// with Port.CancelRecv (and then Wait, which either path satisfies).
func (r *Recv) WaitTimeout(d time.Duration) bool { return r.home.Gate.Wait(r.Matched, d) }

// Matched reports whether the receive has completed, without blocking.
func (r *Recv) Matched() bool {
	if r.Done() {
		return true
	}
	r.p.Poll()
	return r.Done()
}

// Done is the bare completion flag: unlike Matched it makes no progress.
func (r *Recv) Done() bool { return atomic.LoadUint32(&r.done) == 1 }

// Release returns the handle to its port. It may only be called after the
// request is known to have completed (Wait returned, or Matched reported
// true); no accessor may be used afterwards. Setting done is a completer's
// last touch of the handle (the wake that follows goes to the port's gate),
// so once done is seen the handle is the owner's alone.
func (r *Recv) Release() {
	r.mustBeDone()
	h := r.home
	*r = Recv{home: h}
	h.recvs = append(h.recvs, r)
}

func (r *Recv) mustBeDone() {
	if !r.Done() {
		panic("transport: Recv accessor before completion")
	}
}

// PostV reports the timestamp at which the receive was posted.
func (r *Recv) PostV() model.Time { return r.postV }

// Fault reports how the receive completed: FaultNone for a real delivery,
// FaultDropped/FaultPeerDead when it was resolved by a ghost, or
// FaultCancelled after CancelRecv. Only valid after completion.
func (r *Recv) Fault() FaultKind { r.mustBeDone(); return r.fault }

// Src reports the sender's rank. Only valid after completion.
func (r *Recv) Src() int { r.mustBeDone(); return r.srcRank }

// Tag reports the matched message's tag. Only valid after completion.
func (r *Recv) Tag() int { r.mustBeDone(); return r.tagVal }

// Len reports the payload bytes copied into the posted buffer. Only valid
// after completion.
func (r *Recv) Len() int { r.mustBeDone(); return r.n }

// ArriveV reports the matched message's arrival timestamp. Only valid after
// completion.
func (r *Recv) ArriveV() model.Time { r.mustBeDone(); return r.arriveV }

// Unexpected reports, by timestamp, whether the message arrived before the
// receive was posted (and therefore landed in the unexpected queue, costing
// an extra staging copy in real MPI implementations). Only valid after
// completion.
func (r *Recv) Unexpected() bool {
	r.mustBeDone()
	return r.arriveV < r.postV
}

// Complete finishes a matched (receive, message) pair on whichever
// goroutine made the match: it claims a rendezvous message, copies the
// payload into the posted buffer, caches the completion record on the
// handle, returns pooled resources and wakes a rendezvous sender's gate. It
// reports false — having touched nothing — when the sender's Withdraw won
// the message first; the receive is then still live and the caller puts it
// back (Table.Repost) or offers it the next message. Setting done is the
// last touch of r; a completer on another goroutine than r's owner then
// wakes the owner's port gate.
func Complete(r *Recv, m *Msg) bool {
	if m.home == nil {
		// Claim before touching the payload: a sender that wins the
		// withdraw CAS instead may already have recycled its buffer.
		m.matchV = model.Max(m.ArriveV, r.postV)
		if !atomic.CompareAndSwapUint32(&m.state, stateQueued, stateMatched) {
			return false
		}
	}
	r.n = copy(r.buf, m.Data)
	r.srcRank = m.Src
	r.tagVal = m.Tag
	r.arriveV = m.ArriveV
	r.fault = m.Fault // ghost completions carry the fault to the receiver
	// The payload is copied out and no sender path touches Data again
	// (WaitMatched/MatchV read only state and matchV; a concurrent Withdraw
	// lost the CAS and bailed before its PutBuf), so it is returned here —
	// the sender has no reference to the wire, and leaving the return to it
	// would leak a pooled buffer per rendezvous message.
	PutBuf(m.Data)
	if m.home != nil {
		putMsg(m)
	} else {
		m.Data = nil
		m.gate.Wake()
	}
	atomic.StoreUint32(&r.done, 1)
	return true
}

// CompleteCancelled publishes the withdrawal of a receive that
// Table.RemoveRecv just took out of the table: no completer can touch it any
// more, so the cancellation goes through the normal completion record.
func CompleteCancelled(r *Recv) {
	r.n = 0
	r.srcRank = -1
	r.tagVal = -1
	r.arriveV = r.postV
	r.fault = FaultCancelled
	atomic.StoreUint32(&r.done, 1)
}
