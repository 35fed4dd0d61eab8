package transport

import "commintent/internal/model"

// pairKey indexes the matching structures by (source, tag); posted-receive
// keys may hold the AnySource/AnyTag wildcards, unexpected-message keys are
// always concrete.
type pairKey struct{ src, tag int }

// msgQueue is an arrival-ordered queue of unexpected messages supporting
// O(1) removal from the middle: entries are nilled out in place (positions
// are absolute, base-relative indices), and a head index lazily advances
// past the holes. The head is an index rather than a reslice so that a
// drained queue resets to the *start* of its backing array — reslicing
// forward would bleed capacity and force a reallocation per refill in
// steady-state traffic.
type msgQueue struct {
	q    []*Msg
	head int // index into q of the first live entry
	base int // absolute position of q[0]
}

func (mq *msgQueue) push(m *Msg) int {
	mq.q = append(mq.q, m)
	return mq.base + len(mq.q) - 1
}

// holds reports whether m sits at absolute position pos.
func (mq *msgQueue) holds(m *Msg, pos int) bool {
	i := pos - mq.base
	return i >= 0 && i < len(mq.q) && mq.q[i] == m
}

func (mq *msgQueue) remove(pos int) {
	mq.q[pos-mq.base] = nil
	mq.skip()
}

// skip advances head past leading holes, so first() is O(1) amortised, and
// rewinds an emptied queue to reuse its backing array from the front.
func (mq *msgQueue) skip() {
	for mq.head < len(mq.q) && mq.q[mq.head] == nil {
		mq.head++
	}
	if mq.head == len(mq.q) {
		mq.base += len(mq.q)
		mq.q = mq.q[:0]
		mq.head = 0
	}
}

func (mq *msgQueue) first() *Msg {
	mq.skip()
	if mq.head == len(mq.q) {
		return nil
	}
	return mq.q[mq.head]
}

// recvQueue is a FIFO of posted receives for one (src,tag) pattern. Matches
// consume the queue head; RemoveRecv may nil out an entry in the middle, so
// first() skips holes.
type recvQueue struct {
	q    []*Recv
	head int
}

func (rq *recvQueue) push(r *Recv) { rq.q = append(rq.q, r) }

func (rq *recvQueue) first() *Recv {
	for rq.head < len(rq.q) && rq.q[rq.head] == nil {
		rq.head++
	}
	if rq.head == len(rq.q) {
		rq.q = rq.q[:0]
		rq.head = 0
		return nil
	}
	return rq.q[rq.head]
}

// pop removes the queue head; callers must have established it is live via
// first() in the same critical section.
func (rq *recvQueue) pop() *Recv {
	r := rq.q[rq.head]
	rq.q[rq.head] = nil
	rq.head++
	if rq.head == len(rq.q) {
		rq.q = rq.q[:0]
		rq.head = 0
	}
	return r
}

// unpop undoes the pop() that just returned r: the vacated slot is still in
// front of the live entries, unless pop rewound a queue it had emptied.
func (rq *recvQueue) unpop(r *Recv) {
	if rq.head > 0 {
		rq.head--
		rq.q[rq.head] = r
		return
	}
	rq.q = append(rq.q, r)
}

// removeReq nils out r wherever it sits in the queue, reporting whether it
// was found.
func (rq *recvQueue) removeReq(r *Recv) bool {
	for i := rq.head; i < len(rq.q); i++ {
		if rq.q[i] == r {
			rq.q[i] = nil
			return true
		}
	}
	return false
}

// Table is one rank's receiver-side match state: the unexpected messages
// that arrived before a matching receive was posted, and the receives posted
// before a matching message arrived. Its semantics are MPI's — source/tag
// with wildcards, non-overtaking per (source, tag) pair, and among several
// candidates the earliest arrived message or the earliest posted receive
// wins.
//
// It is single-threaded: the transport that owns it provides the mutual
// exclusion (simnet a per-endpoint mutex, because remote senders deliver
// into it; shm nothing at all, because only the owning rank ever touches
// it). It never blocks, never allocates per message in steady state, and
// never looks at a payload.
//
// Matching is indexed: both sides are bucketed by (src,tag), so the common
// concrete-pattern case is O(1) per message regardless of queue depth. A
// linear scan survives only for wildcard receives and probes, which must
// honour arrival order across buckets.
type Table struct {
	// Unexpected messages: arrival-order FIFO plus per-(src,tag) buckets
	// over the same Msg set. Buckets persist once created (bounded by the
	// number of distinct pairs) so steady-state traffic never reallocates.
	// The map is allocated lazily at first unexpected arrival — at 64k
	// ranks most endpoints never queue one, and bring-up must not pay 64k
	// map headers. Nil-map reads are safe everywhere it is consulted.
	unexFifo    msgQueue
	unexBuckets map[pairKey]*msgQueue
	unexCount   int
	unexHW      int // high-watermark of the unexpected queue depth

	// Posted receives, bucketed by their (possibly wildcard) pattern.
	// Lazily allocated at first posting, like unexBuckets. wild counts the
	// posted receives with a wildcard pattern: while it is 0 an arrival
	// probes its own bucket alone.
	posted      map[pairKey]*recvQueue
	postedCount int
	wild        int
	postSeq     uint64
}

// wildcard reports whether r's pattern holds AnySource or AnyTag.
func (r *Recv) wildcard() bool { return r.src == AnySource || r.tag == AnyTag }

// Arrive offers an arrived message to the table: it returns the
// earliest-posted receive matching it, taken out of the table, or files m
// as unexpected and returns nil.
func (t *Table) Arrive(m *Msg) *Recv {
	if r := t.takePosted(m.Src, m.Tag); r != nil {
		return r
	}
	m.fifoPos = t.unexFifo.push(m)
	key := pairKey{m.Src, m.Tag}
	b := t.unexBuckets[key]
	if b == nil {
		if t.unexBuckets == nil {
			t.unexBuckets = make(map[pairKey]*msgQueue)
		}
		b = &msgQueue{}
		t.unexBuckets[key] = b
	}
	m.bucketPos = b.push(m)
	t.unexCount++
	if t.unexCount > t.unexHW {
		t.unexHW = t.unexCount
	}
	return nil
}

// Post offers a receive to the table: it returns the earliest-arrived
// unexpected message matching r's pattern, taken out of the table, or files
// r as posted and returns nil.
func (t *Table) Post(r *Recv) *Msg {
	if m := t.takeUnexpected(r.src, r.tag); m != nil {
		r.queued = true
		return m
	}
	r.queued = false
	r.postSeq = t.postSeq
	t.postSeq++
	key := pairKey{r.src, r.tag}
	rq := t.posted[key]
	if rq == nil {
		if t.posted == nil {
			t.posted = make(map[pairKey]*recvQueue)
		}
		rq = &recvQueue{}
		t.posted[key] = rq
	}
	rq.push(r)
	t.countPosted(r, 1)
	return nil
}

// countPosted moves the posted counts by d for r.
func (t *Table) countPosted(r *Recv, d int) {
	t.postedCount += d
	if r.wildcard() {
		t.wild += d
	}
}

// Repost puts back, ahead of every other receive with its pattern, a receive
// that Arrive returned for a message that then turned out to be withdrawn.
// It must directly follow that Arrive: the receive keeps its posting order,
// which is only still the earliest of its queue if nothing ran in between.
func (t *Table) Repost(r *Recv) {
	t.posted[pairKey{r.src, r.tag}].unpop(r)
	t.countPosted(r, 1)
}

// takePosted pops and returns the earliest-posted receive matching
// (src,tag), or nil. A message can match a receive through exactly four
// patterns — concrete, source-wildcard, tag-wildcard, both — so only those
// bucket heads are consulted, and only the concrete one while no wildcard
// receive is posted; earliest posting wins, as with the linear scan this
// replaces.
func (t *Table) takePosted(src, tag int) *Recv {
	var best *recvQueue
	var bestSeq uint64
	keys := [4]pairKey{{src, tag}, {src, AnyTag}, {AnySource, tag}, {AnySource, AnyTag}}
	probe := keys[:]
	if t.wild == 0 {
		probe = keys[:1]
	}
	for _, key := range probe {
		rq := t.posted[key]
		if rq == nil {
			continue
		}
		if r := rq.first(); r != nil && (best == nil || r.postSeq < bestSeq) {
			best = rq
			bestSeq = r.postSeq
		}
	}
	if best == nil {
		return nil
	}
	r := best.pop()
	t.countPosted(r, -1)
	return r
}

// takeUnexpected finds and dequeues the earliest-arrived unexpected message
// matching the (possibly wildcard) pattern, or returns nil.
func (t *Table) takeUnexpected(src, tag int) *Msg {
	m := t.findUnexpected(src, tag)
	if m != nil {
		t.unlink(m)
	}
	return m
}

// findUnexpected is takeUnexpected without the dequeue. Concrete patterns
// hit their bucket directly; wildcards scan the arrival FIFO.
func (t *Table) findUnexpected(src, tag int) *Msg {
	if src != AnySource && tag != AnyTag {
		if b := t.unexBuckets[pairKey{src, tag}]; b != nil {
			return b.first()
		}
		return nil
	}
	t.unexFifo.skip()
	for _, m := range t.unexFifo.q[t.unexFifo.head:] {
		if m != nil && matches(src, tag, m.Src, m.Tag) {
			return m
		}
	}
	return nil
}

func matches(wantSrc, wantTag, src, tag int) bool {
	if wantSrc != AnySource && wantSrc != src {
		return false
	}
	if wantTag != AnyTag && wantTag != tag {
		return false
	}
	return true
}

// unlink removes a queued message from both unexpected views.
func (t *Table) unlink(m *Msg) {
	t.unexFifo.remove(m.fifoPos)
	t.unexBuckets[pairKey{m.Src, m.Tag}].remove(m.bucketPos)
	t.unexCount--
}

// Probe reports the envelope (a copy: the message stays the table's) of the
// earliest-arrived unexpected message matching the pattern, without taking it.
func (t *Table) Probe(src, tag int) (Envelope, bool) {
	m := t.findUnexpected(src, tag)
	if m == nil {
		return Envelope{}, false
	}
	return m.Envelope(), true
}

// RemoveMsg withdraws m from the unexpected queue wherever it sits,
// reporting whether it was still queued; false means a receive took it (or
// it never was filed).
func (t *Table) RemoveMsg(m *Msg) bool {
	b := t.unexBuckets[pairKey{m.Src, m.Tag}]
	if b == nil || !b.holds(m, m.bucketPos) {
		return false
	}
	t.unlink(m)
	return true
}

// RemoveMsgs withdraws every queued message dead reports true for: the sweep
// of a feeder whose senders can kill a message behind the owner's back.
func (t *Table) RemoveMsgs(dead func(*Msg) bool) {
	for _, m := range t.unexFifo.q[t.unexFifo.head:] {
		if m != nil && dead(m) {
			t.unlink(m)
		}
	}
}

// RemoveRecv withdraws a posted receive, reporting whether it was still
// posted; false means a message took it. The caller completes a removed
// receive with CompleteCancelled.
func (t *Table) RemoveRecv(r *Recv) bool {
	rq := t.posted[pairKey{r.src, r.tag}]
	if rq == nil || !rq.removeReq(r) {
		return false
	}
	t.countPosted(r, -1)
	return true
}

// Unexpected reports the number of queued unexpected messages.
func (t *Table) Unexpected() int { return t.unexCount }

// UnexpectedHighWatermark reports the deepest the unexpected queue has ever
// been — a direct measure of sender-ahead-of-receiver pressure (each queued
// message costs an extra staging copy in real MPI).
func (t *Table) UnexpectedHighWatermark() int { return t.unexHW }

// Posted reports the number of posted-but-unmatched receives.
func (t *Table) Posted() int { return t.postedCount }

// EachUnexpected calls yield with the envelope of every queued unexpected
// message, in arrival order.
func (t *Table) EachUnexpected(yield func(Envelope)) {
	for _, m := range t.unexFifo.q[t.unexFifo.head:] {
		if m != nil {
			yield(m.Envelope())
		}
	}
}

// EachPosted calls yield with the pattern and posting timestamp of every
// posted-but-unmatched receive, in no particular order.
func (t *Table) EachPosted(yield func(src, tag int, postV model.Time)) {
	for key, rq := range t.posted {
		for _, r := range rq.q[rq.head:] {
			if r != nil {
				yield(key.src, key.tag, r.postV)
			}
		}
	}
}
