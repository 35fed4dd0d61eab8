package shmem

import (
	"fmt"
	"reflect"
	"time"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/transport"
)

// Slice is a symmetric array: the same allocation exists on every PE, and
// remote PEs' copies are addressable by (PE, element offset). It is the
// analogue of memory returned by shmalloc.
//
// All PEs' copies are resolved into a typed table once, at Alloc time (the
// allocation is collective and the table is immutable afterwards), so the
// steady-state put/get path addresses remote memory with one slice index —
// no lock, no type assertion, no interface unboxing.
type Slice[T Elem] struct {
	id    int
	ws    *worldState
	n     int
	esz   int
	tname string // element type name, precomputed (diagnostics)
	symTable[T]
	home  int // the allocating PE
	boxed any // bufs[home] pre-boxed, so LocalAny never allocates
}

// symTable is what Alloc resolves once per allocation and every PE's Slice
// then shares (by value: three slice headers over the same per-PE tables).
type symTable[T Elem] struct {
	bufs [][]T         // every PE's copy
	sigs [][]signal[T] // every PE's unconsumed signals
	bulk []span        // every PE's writes not logged one by one
}

// signal is one single-element write (P, a one-element Put, an atomic) that
// has landed on a PE's copy and that no wait_until has accounted for yet:
// which element, the value it left there, and when it arrived. wait_until
// dates its wake-up by these, because the latest arrival of *anything* on
// the PE — the other ring neighbour's puts, a fast neighbour's next
// iteration — depends on which goroutine the host ran first.
type signal[T Elem] struct {
	off    int
	val    T
	arrive model.Time
}

// span stands for the writes to a PE's copy that the signal log does not hold
// one by one — multi-element Puts, whose values are not copied, and signals
// the log has forgotten: the element range they span and the latest arrival
// among them. It can date a wait late (by a neighbouring element's write, or
// a fast writer's next bulk put) but never early, which is the side to err on:
// a wait must not return before the write it saw has arrived.
type span struct {
	lo, hi int
	arrive model.Time
}

func (sp *span) cover(lo, hi int, arrive model.Time) {
	if sp.lo == sp.hi {
		sp.lo, sp.hi = lo, hi
	}
	sp.lo, sp.hi = min(sp.lo, lo), max(sp.hi, hi)
	sp.arrive = max(sp.arrive, arrive)
}

// signalled logs a single-element write landing on PE pe. Caller holds the
// PE's board lock. Signals nobody waits for (element-wise data puts) are
// bounded by folding the older half into the PE's span once there are more
// than any flag-per-PE protocol leaves outstanding.
func (s *Slice[T]) signalled(pe, off int, val T, arrive model.Time) {
	log := s.sigs[pe]
	if len(log) >= 4*len(s.sigs)+64 {
		old := log[:len(log)/2]
		for _, sg := range old {
			s.bulk[pe].cover(sg.off, sg.off+1, sg.arrive)
		}
		log = log[:copy(log, log[len(old):])]
	}
	s.sigs[pe] = append(log, signal[T]{off, val, arrive})
}

// satisfiedAt reports when the wait for (cmp, v) on PE pe's element off
// became satisfiable: the latest arrival among the signals on that element
// up to and including the first that made the condition hold, in landing
// order — one writer's flag sequence resolves to the flag value waited for
// even when later ones have landed too, several writers' contributions to
// the arrival of the last one needed. A span reaching the element may hide
// the satisfying write or one it builds on, so its arrival counts too. All of
// those are consumed: the caller's clock is about to pass them. With none it
// reports 0: the write was accounted for by an earlier wait, or was local.
// Caller holds the PE's board lock.
func (s *Slice[T]) satisfiedAt(pe, off int, cmp Cmp, v T) model.Time {
	var at model.Time
	if sp := &s.bulk[pe]; off >= sp.lo && off < sp.hi {
		at, *sp = sp.arrive, span{}
	}
	keep, hit := s.sigs[pe][:0], false
	for _, sg := range s.sigs[pe] {
		if hit || sg.off != off {
			keep = append(keep, sg)
			continue
		}
		at = max(at, sg.arrive)
		hit = satisfies(sg.val, cmp, v)
	}
	s.sigs[pe] = keep
	return at
}

func elemBytes[T Elem]() int {
	var z T
	return int(reflect.TypeOf(z).Size())
}

// Alloc symmetrically allocates an n-element array of T. It is collective:
// every PE must call Alloc in the same order with the same n and T, and the
// call synchronises all PEs (as shmalloc does). Asymmetric allocation is
// reported as an error.
func Alloc[T Elem](c *Ctx, n int) (*Slice[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("shmem: Alloc size %d", n)
	}
	id := c.nextID
	c.nextID++
	esz := elemBytes[T]()
	var z T
	tn := reflect.TypeOf(z).String()

	c.ws.mu.Lock()
	for len(c.ws.entries) <= id {
		c.ws.entries = append(c.ws.entries, &entry{per: make([]any, c.NPEs())})
	}
	e := c.ws.entries[id]
	c.ws.mu.Unlock()

	var mismatch error
	e.mu.Lock()
	if e.typeName == "" {
		e.typeName, e.n, e.elemBytes = tn, n, esz
	} else if e.typeName != tn || e.n != n {
		mismatch = fmt.Errorf("shmem: asymmetric allocation %d on PE %d: %s[%d] vs %s[%d]",
			id, c.MyPE(), tn, n, e.typeName, e.n)
	}
	if mismatch == nil {
		e.per[c.MyPE()] = make([]T, n)
	}
	e.mu.Unlock()

	// shmalloc is synchronising: all PEs leave together — even on error,
	// so a detected asymmetry cannot deadlock the symmetric PEs.
	c.BarrierAll()
	if mismatch != nil {
		return nil, mismatch
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	for pe, buf := range e.per {
		if buf == nil {
			return nil, fmt.Errorf("shmem: allocation %d missing on PE %d after barrier (asymmetric allocation)", id, pe)
		}
	}
	// Resolve the shared typed table once (first PE through builds it);
	// e.per is immutable after the allocation barrier, so the table can be
	// read lock-free for the life of the allocation.
	if e.resolved == nil {
		tab := &symTable[T]{
			bufs: make([][]T, len(e.per)),
			sigs: make([][]signal[T], len(e.per)),
			bulk: make([]span, len(e.per)),
		}
		for pe, buf := range e.per {
			tab.bufs[pe] = buf.([]T)
		}
		e.resolved = tab
	}
	tab := e.resolved.(*symTable[T])
	me := c.MyPE()
	return &Slice[T]{
		id: id, ws: c.ws, n: n, esz: esz, tname: tn,
		symTable: *tab, home: me, boxed: tab.bufs[me],
	}, nil
}

// MustAlloc is Alloc that panics on error; convenient in SPMD bodies where
// symmetry is structurally guaranteed.
func MustAlloc[T Elem](c *Ctx, n int) *Slice[T] {
	s, err := Alloc[T](c, n)
	if err != nil {
		panic(err)
	}
	return s
}

// Len reports the symmetric array's element count.
func (s *Slice[T]) Len() int { return s.n }

// SymID reports the symmetric allocation id (used by the directive layer
// to recognise symmetric buffers).
func (s *Slice[T]) SymID() int { return s.id }

// on returns PE pe's copy: a lock-free load from the table resolved at
// Alloc (synchronisation of the *contents* is still the caller's job, via
// the per-destination RMA boards).
func (s *Slice[T]) on(pe int) []T { return s.bufs[pe] }

// Local returns the calling PE's copy of the array. Reads of remotely
// written elements are only well-defined after a synchronisation
// (WaitUntil, TeamBarrier, BarrierAll).
func (s *Slice[T]) Local(c *Ctx) []T { return s.on(c.MyPE()) }

// Put copies src into PE pe's copy of the array starting at element dstOff
// (the analogue of the typed shmem_put routines; the element size selects
// the variant, which the cost model treats uniformly). Remote completion
// requires Quiet or a barrier; remote visibility to a waiting PE is
// signalled for WaitUntil.
func (s *Slice[T]) Put(c *Ctx, pe int, src []T, dstOff int) error {
	if pe < 0 || pe >= c.NPEs() {
		return fmt.Errorf("shmem: Put to PE %d of %d", pe, c.NPEs())
	}
	if dstOff < 0 || dstOff+len(src) > s.n {
		return fmt.Errorf("shmem: Put of %d elements at offset %d overflows symmetric array of %d", len(src), dstOff, s.n)
	}
	p := c.prof()
	clk := c.clock()
	bytes := len(src) * s.esz
	sp := c.span("shmem_put", clk.Now())
	clk.Advance(p.ShmemPutOverhead + p.ShmemInjectTime(bytes))
	defer sp.End(clk.Now())
	arrive := clk.Now() + p.ShmemLatencyBetween(c.MyPE(), pe)

	board := s.ws.rma[pe]
	board.mu.Lock()
	copy(s.on(pe)[dstOff:dstOff+len(src)], src)
	if len(src) == 1 {
		s.signalled(pe, dstOff, src[0], arrive)
	} else {
		s.bulk[pe].cover(dstOff, dstOff+len(src), arrive)
	}
	board.wake()
	board.mu.Unlock()

	c.notePut(arrive)
	c.tele.putBytes.Add(int64(bytes))
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvPut, Peer: pe, Bytes: bytes, V: clk.Now()})
	return nil
}

// P writes a single element to PE pe at offset off (shmem_p).
func (s *Slice[T]) P(c *Ctx, pe int, off int, v T) error {
	return s.Put(c, pe, []T{v}, off)
}

// Get copies count elements from PE pe's copy starting at srcOff into dst.
// It blocks for the round trip.
func (s *Slice[T]) Get(c *Ctx, pe int, dst []T, srcOff int) error {
	if pe < 0 || pe >= c.NPEs() {
		return fmt.Errorf("shmem: Get from PE %d of %d", pe, c.NPEs())
	}
	if srcOff < 0 || srcOff+len(dst) > s.n {
		return fmt.Errorf("shmem: Get of %d elements at offset %d overflows symmetric array of %d", len(dst), srcOff, s.n)
	}
	p := c.prof()
	clk := c.clock()
	bytes := len(dst) * s.esz
	sp := c.span("shmem_get", clk.Now())
	clk.Advance(p.ShmemGetOverhead)
	board := s.ws.rma[pe]
	board.mu.Lock()
	copy(dst, s.on(pe)[srcOff:srcOff+len(dst)])
	board.mu.Unlock()
	clk.Advance(p.ShmemWireTime(0) + p.ShmemWireTime(bytes))
	sp.End(clk.Now())
	c.tele.getBytes.Add(int64(bytes))
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvGet, Peer: pe, Bytes: bytes, V: clk.Now()})
	return nil
}

// WaitUntil blocks until the local element at off satisfies (cmp, v); the
// element is expected to be written remotely (shmem_wait_until). The caller's
// clock advances to the arrival time of the write that satisfied the wait —
// exactly when that was a P, one-element Put or atomic, and to no earlier
// than it when a multi-element Put carried the element (see satisfiedAt).
func (s *Slice[T]) WaitUntil(c *Ctx, off int, cmp Cmp, v T) error {
	return s.waitUntil(c, off, cmp, v, nil, 0)
}

// WaitUntilTimeout is WaitUntil with a deadline of timeout virtual ns from
// the call. The trigger is the context's real-time watchdog (the virtual
// clock cannot advance while blocked); on expiry the wait fails with
// transport.ErrDeadline — match with errors.Is — charged at the virtual
// deadline. This is the one-sided analogue of mpi.RecvTimeout: a peer that
// died before signalling turns into a typed error instead of a hang.
func (s *Slice[T]) WaitUntilTimeout(c *Ctx, off int, cmp Cmp, v T, timeout model.Time) error {
	t := time.NewTimer(c.watchdog())
	defer t.Stop()
	return s.waitUntil(c, off, cmp, v, t.C, c.clock().Now()+timeout)
}

func (s *Slice[T]) waitUntil(c *Ctx, off int, cmp Cmp, v T, expire <-chan time.Time, deadline model.Time) error {
	if off < 0 || off >= s.n {
		return fmt.Errorf("shmem: WaitUntil offset %d of %d", off, s.n)
	}
	local := s.Local(c)
	clk := c.clock()
	sp := c.span("shmem_wait_until", clk.Now())
	board := s.ws.rma[c.MyPE()]
	board.mu.Lock()
	for !satisfies(local[off], cmp, v) {
		// Declare the wait under the lock, then park outside it; wake()
		// deposits its token under the same lock, so a signal between unlock
		// and select cannot be missed. The flag keeps wake() free for
		// arrivals nobody is waiting on.
		board.waiting = true
		board.mu.Unlock()
		select {
		case <-board.sig:
		case <-expire:
			board.mu.Lock()
			board.waiting = false
			board.mu.Unlock()
			clk.Advance(c.prof().ShmemWaitPoll)
			if idle := deadline - clk.Now(); idle > 0 {
				c.tele.idle.AddTime(idle)
			}
			clk.AdvanceTo(deadline)
			sp.End(clk.Now())
			return fmt.Errorf("shmem: wait_until PE %d offset %d: %w", c.MyPE(), off, transport.ErrDeadline)
		}
		board.mu.Lock()
		board.waiting = false
	}
	arrival := s.satisfiedAt(c.MyPE(), off, cmp, v)
	board.mu.Unlock()
	clk.Advance(c.prof().ShmemWaitPoll)
	if idle := arrival - clk.Now(); idle > 0 {
		c.tele.idle.AddTime(idle)
	}
	clk.AdvanceTo(arrival)
	sp.End(clk.Now())
	return nil
}
