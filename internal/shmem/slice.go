package shmem

import (
	"fmt"
	"reflect"
	"time"

	"commintent/internal/model"
	"commintent/internal/simnet"
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
	bufs  [][]T  // every PE's copy, shared table resolved at Alloc
	home  int    // the allocating PE
	boxed any    // bufs[home] pre-boxed, so LocalAny never allocates
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
		bufs := make([][]T, len(e.per))
		for pe, buf := range e.per {
			bufs[pe] = buf.([]T)
		}
		e.resolved = bufs
	}
	bufs := e.resolved.([][]T)
	me := c.MyPE()
	return &Slice[T]{
		id: id, ws: c.ws, n: n, esz: esz, tname: tn,
		bufs: bufs, home: me, boxed: bufs[me],
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
	if arrive > board.lastArrival {
		board.lastArrival = arrive
	}
	board.version++
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
// element is expected to be written by a remote Put (shmem_wait_until). The
// caller's clock advances to the arrival time of the satisfying traffic.
func (s *Slice[T]) WaitUntil(c *Ctx, off int, cmp Cmp, v T) error {
	return s.waitUntil(c, off, cmp, v, nil, 0)
}

// WaitUntilTimeout is WaitUntil with a deadline of timeout virtual ns from
// the call. The trigger is the context's real-time watchdog (the virtual
// clock cannot advance while blocked); on expiry the wait fails with
// simnet.ErrDeadline — match with errors.Is — charged at the virtual
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
			return fmt.Errorf("shmem: wait_until PE %d offset %d: %w", c.MyPE(), off, simnet.ErrDeadline)
		}
		board.mu.Lock()
		board.waiting = false
	}
	arrival := board.lastArrival
	board.mu.Unlock()
	clk.Advance(c.prof().ShmemWaitPoll)
	if idle := arrival - clk.Now(); idle > 0 {
		c.tele.idle.AddTime(idle)
	}
	clk.AdvanceTo(arrival)
	sp.End(clk.Now())
	return nil
}
