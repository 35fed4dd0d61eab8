package shmem

import (
	"fmt"

	"commintent/internal/simnet"
)

// Atomic memory operations on symmetric arrays, the analogues of
// shmem_fadd / shmem_swap / shmem_cswap. Each is a blocking round trip to
// the target PE and is atomic with respect to every other AMO and put on
// that PE (they serialise on the PE's RMA board lock). A completed AMO also
// wakes WaitUntil waiters on the target.

// amoClock charges the round-trip cost of one AMO and counts it.
func (c *Ctx) amoClock() {
	p := c.prof()
	clk := c.clock()
	clk.Advance(p.ShmemGetOverhead)
	clk.Advance(p.ShmemWireTime(0) + p.ShmemWireTime(8))
	c.tele.amos.Inc()
}

// FetchAdd atomically adds delta to PE pe's element at off and returns the
// previous value.
func (s *Slice[T]) FetchAdd(c *Ctx, pe int, off int, delta T) (T, error) {
	var zero T
	if pe < 0 || pe >= c.NPEs() {
		return zero, fmt.Errorf("shmem: FetchAdd on PE %d of %d", pe, c.NPEs())
	}
	if off < 0 || off >= s.n {
		return zero, fmt.Errorf("shmem: FetchAdd offset %d of %d", off, s.n)
	}
	board := s.ws.rma[pe]
	board.mu.Lock()
	buf := s.on(pe)
	old := buf[off]
	buf[off] = old + delta
	s.signalled(pe, off, buf[off], c.clock().Now())
	board.gate.Wake()
	board.mu.Unlock()
	c.amoClock()
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvPut, Peer: pe, Bytes: s.esz, V: c.clock().Now()})
	return old, nil
}

// Swap atomically replaces PE pe's element at off with v and returns the
// previous value.
func (s *Slice[T]) Swap(c *Ctx, pe int, off int, v T) (T, error) {
	var zero T
	if pe < 0 || pe >= c.NPEs() {
		return zero, fmt.Errorf("shmem: Swap on PE %d of %d", pe, c.NPEs())
	}
	if off < 0 || off >= s.n {
		return zero, fmt.Errorf("shmem: Swap offset %d of %d", off, s.n)
	}
	board := s.ws.rma[pe]
	board.mu.Lock()
	buf := s.on(pe)
	old := buf[off]
	buf[off] = v
	s.signalled(pe, off, v, c.clock().Now())
	board.gate.Wake()
	board.mu.Unlock()
	c.amoClock()
	return old, nil
}

// CompareSwap atomically sets PE pe's element at off to v if it currently
// equals cond, returning the previous value (the swap happened iff the
// return equals cond).
func (s *Slice[T]) CompareSwap(c *Ctx, pe int, off int, cond, v T) (T, error) {
	var zero T
	if pe < 0 || pe >= c.NPEs() {
		return zero, fmt.Errorf("shmem: CompareSwap on PE %d of %d", pe, c.NPEs())
	}
	if off < 0 || off >= s.n {
		return zero, fmt.Errorf("shmem: CompareSwap offset %d of %d", off, s.n)
	}
	board := s.ws.rma[pe]
	board.mu.Lock()
	buf := s.on(pe)
	old := buf[off]
	if old == cond {
		buf[off] = v
		s.signalled(pe, off, v, c.clock().Now())
		board.gate.Wake()
	}
	board.mu.Unlock()
	c.amoClock()
	return old, nil
}
