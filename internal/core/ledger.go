package core

import (
	"slices"

	"commintent/internal/mpi"
	"commintent/internal/shmem"
)

// ledger accumulates the pending completions of the comm_p2p instances in a
// region: the analysis the paper describes ("for every set of adjacent
// comm_p2p directives with independent buffers, synchronization is
// consolidated and reduced in most cases to one call at the end of all the
// adjacent communication") is realised by pushing every instance's
// completion here and flushing once.
type ledger struct {
	reqs   []*mpi.Request
	pinned []bufRange
	hull   rangeHull // bounds every pinned range

	// store is request storage the ledger owns, so that a region replayed
	// on it starts its operations on memory that exists. used counts the
	// requests handed out since the last reset — not len(reqs), which also
	// counts the requests of an absorbed ledger, and those live in that
	// ledger's store.
	store []*mpi.Request
	used  int

	// resend carries the call behind each request — parallel to reqs — so
	// flush can re-express lost transfers on a fault-injecting fabric. Only
	// populated when the environment runs with faults enabled.
	resend []planOp

	// The completion sets are small slices kept in the order flush visits
	// them — world PEs ascending, windows by creation sequence (all ranks
	// hold the same windows in the same creation order, so every rank folds
	// the same set into its one fence wave) — and truncated in place by
	// reset, so a steady-state region loop neither sorts nor allocates.
	shmemDst []int      // world PEs this rank put data to
	shmemSrc []int      // world PEs this rank expects data from
	wins     []*mpi.Win // windows with an open put epoch

	p2pCount int // comm_p2p executions recorded (for max_comm_iter)
}

func newLedger() *ledger {
	return &ledger{}
}

// reset clears the ledger in place, keeping slice storage warm for the
// next region.
func (l *ledger) reset() {
	clear(l.reqs)
	l.reqs = l.reqs[:0]
	l.used = 0
	clear(l.resend)
	l.resend = l.resend[:0]
	l.unpin()
	l.shmemDst = l.shmemDst[:0]
	l.shmemSrc = l.shmemSrc[:0]
	clear(l.wins)
	l.wins = l.wins[:0]
	l.p2pCount = 0
}

// request returns the next inactive request of the ledger's store. Every
// request handed out before the last reset was completed by the flush that
// reset the ledger; mpi refuses to start an active one.
func (l *ledger) request() *mpi.Request {
	if l.used == len(l.store) {
		l.store = append(l.store, new(mpi.Request))
	}
	l.used++
	return l.store[l.used-1]
}

// noteWin records a window with an open put epoch. Directives name their
// windows in the same order region after region, so the scan from the back
// ends at once.
func (l *ledger) noteWin(w *mpi.Win) {
	i := len(l.wins)
	for i > 0 && l.wins[i-1].Seq() >= w.Seq() {
		if l.wins[i-1] == w {
			return
		}
		i--
	}
	l.wins = slices.Insert(l.wins, i, w)
}

// leave records the completion a call it was handed needs.
func (l *ledger) leave(op *planOp, faults bool) {
	switch op.kind {
	case opIrecv, opIsend:
		l.reqs = append(l.reqs, op.req)
		if faults {
			l.resend = append(l.resend, *op)
		}
	case opShmemPut:
		l.noteShmemDst(int(op.peer))
	}
}

// noteShmemDst records a world PE this rank put data to.
func (l *ledger) noteShmemDst(pe int) { l.shmemDst = insertPE(l.shmemDst, pe) }

// noteShmemSrc records a world PE this rank expects data from.
func (l *ledger) noteShmemSrc(pe int) { l.shmemSrc = insertPE(l.shmemSrc, pe) }

// insertPE adds pe to an ascending set of PEs.
func insertPE(set []int, pe int) []int {
	if n := len(set); n > 0 && set[n-1] == pe {
		return set // a run of directives to one peer
	}
	i, found := slices.BinarySearch(set, pe)
	if found {
		return set
	}
	return slices.Insert(set, i, pe)
}

func (l *ledger) empty() bool {
	return len(l.reqs) == 0 && len(l.shmemDst) == 0 && len(l.shmemSrc) == 0 && len(l.wins) == 0
}

// symSpan is the element span of one symmetric allocation's pinned ranges.
type symSpan struct{ id, lo, hi int }

// rangeHull bounds a set of ranges per storage class: one local address
// span, and one element span per symmetric allocation. A range outside the
// hull overlaps no member of the set.
type rangeHull struct {
	local  bool // lo, hi are set
	lo, hi uintptr
	syms   []symSpan
}

func (h *rangeHull) add(r bufRange) {
	if !r.sym {
		if !h.local {
			h.local, h.lo, h.hi = true, r.start, r.end
			return
		}
		h.lo, h.hi = min(h.lo, r.start), max(h.hi, r.end)
		return
	}
	for i := range h.syms {
		if s := &h.syms[i]; s.id == r.symID {
			s.lo, s.hi = min(s.lo, r.symStart), max(s.hi, r.symEnd)
			return
		}
	}
	h.syms = append(h.syms, symSpan{r.symID, r.symStart, r.symEnd})
}

func (h *rangeHull) touches(r bufRange) bool {
	if !r.sym {
		return h.local && r.start < h.hi && h.lo < r.end
	}
	for _, s := range h.syms {
		if s.id == r.symID {
			return r.symStart < s.hi && s.lo < r.symEnd
		}
	}
	return false
}

// overlapsAny reports whether any of ranges overlaps a pinned range. A
// region of many directives over disjoint buffers (one per atom, say) makes
// the full scan quadratic, so the hull answers first.
func (l *ledger) overlapsAny(ranges []bufRange) bool {
	inHull := false
	for _, r := range ranges {
		if l.hull.touches(r) {
			inHull = true
			break
		}
	}
	if !inHull {
		return false
	}
	for _, p := range l.pinned {
		for _, r := range ranges {
			if p.overlaps(r) {
				return true
			}
		}
	}
	return false
}

func (l *ledger) pin(ranges []bufRange) {
	l.pinned = append(l.pinned, ranges...)
	for _, r := range ranges {
		l.hull.add(r)
	}
}

// unpin forgets every pinned range.
func (l *ledger) unpin() {
	l.pinned = l.pinned[:0]
	l.hull = rangeHull{syms: l.hull.syms[:0]}
}

// absorb merges another ledger (carried from a previous adjacent region).
func (l *ledger) absorb(o *ledger) {
	l.reqs = append(l.reqs, o.reqs...)
	l.resend = append(l.resend, o.resend...)
	l.pin(o.pinned)
	for _, pe := range o.shmemDst {
		l.noteShmemDst(pe)
	}
	for _, pe := range o.shmemSrc {
		l.noteShmemSrc(pe)
	}
	for _, w := range o.wins {
		l.noteWin(w)
	}
	l.p2pCount += o.p2pCount
}

// flush performs the consolidated completion synchronisation: one
// MPI_Waitall for all pending two-sided requests, one fence wave over all
// one-sided windows, and — for the SHMEM path — one quiet plus one flag
// per destination PE on the sending side and one wait-until per source PE
// on the receiving side. Returns a description of what was emitted.
func (e *Env) flush(l *ledger, region int) error {
	coPending := !e.co.empty()
	if (l == nil || l.empty()) && !coPending {
		if l != nil {
			// A fully-coalesced region leaves pins but no requests; clear
			// them so they cannot outlive the flush that covers them.
			l.unpin()
		}
		return nil
	}
	fsp := e.span("flush", "sync")
	defer e.endSpan(&fsp)
	if coPending {
		// Drain coalesced batches before the ledger Waitall: every batch
		// send is posted before this rank blocks, so two ranks flushing at
		// different program points cannot deadlock each other.
		if err := e.flushCoalesced(region); err != nil {
			return err
		}
	}
	if l == nil {
		return nil
	}
	if err := e.complete(l, region); err != nil {
		return err
	}
	l.reset()
	return nil
}

// complete is the consolidated completion of a ledger's sets, in flush's
// order; it leaves the ledger as it found it. A recorded region plan keeps
// its sets in a ledger of its own and completes every replay here.
func (e *Env) complete(l *ledger, region int) error {
	if len(l.reqs) > 0 {
		if len(l.reqs) > 1 {
			// Each consolidated request beyond the first is one per-request
			// wait the directive layer avoided emitting.
			e.tele.consolidated.Add(int64(len(l.reqs) - 1))
		}
		if e.faults && len(l.resend) == len(l.reqs) {
			if err := e.waitWithRetry(l, region); err != nil {
				return err
			}
			e.note(region, decWaitallRetry, len(l.reqs))
		} else {
			if err := e.comm.WaitallIgnore(l.reqs); err != nil {
				return err
			}
			e.note(region, decWaitall, len(l.reqs))
		}
	}
	if len(l.wins) > 0 {
		// The region's one-sided epoch: one wave closes all its windows.
		mpi.Fence(l.wins)
		e.note(region, decFence, len(l.wins))
	}
	if len(l.shmemDst) > 0 {
		e.shm.Quiet()
		for _, pe := range l.shmemDst {
			e.sentSync[pe]++
			if err := e.flags.P(e.shm, pe, e.shm.MyPE(), e.sentSync[pe]); err != nil {
				return err
			}
		}
		e.note(region, decQuietFlags, len(l.shmemDst))
	}
	if len(l.shmemSrc) > 0 {
		for _, pe := range l.shmemSrc {
			e.expSync[pe]++
			if err := e.flags.WaitUntil(e.shm, pe, shmem.CmpGE, e.expSync[pe]); err != nil {
				return err
			}
		}
		e.note(region, decWaitUntil, len(l.shmemSrc))
	}
	return nil
}
