package core

import (
	"errors"
	"fmt"
	"sort"

	"commintent/internal/model"
	"commintent/internal/mpi"
	rt "commintent/internal/runtime"
	"commintent/internal/simnet"
	"commintent/internal/transport"
)

// Small-message coalescing: with the managed runtime on, adjacent comm_p2p
// transfers to the same destination inside a comm_parameters region are
// folded into one batch wire message (internal/mpi/batch.go) instead of one
// message each. The directive layer is the only place this is possible —
// the region's clause structure declares, before anything is posted, that
// the transfers are independent and complete together, which is exactly the
// license needed to reorder them into a batch. Raw MPI call sites carry no
// such license; that is the paper's portability argument applied to
// message scheduling.
//
// Correctness rests on the same SPMD program-order discipline the
// directive tag pairing already assumes: both endpoint ranks of a pair
// execute the same directives in the same order, so the receiver's scatter
// queue for a source lists the same parts, in the same order and with the
// same wire sizes, as the sender's accumulator for that destination. The
// receiver therefore never needs to know how the sender partitioned parts
// into batches: each arriving batch declares its member sizes in its
// offset-table header, scatters into the queue's FIFO prefix, and stashes
// any parts whose destinations have not been declared yet (the sender
// flushed earlier than the receiver); stashed payloads are consumed as
// local copies when the destinations appear.
//
// A batch is ONE fabric message, so under fault injection it drops, ghosts
// and retries as one idempotent unit, riding the PR 5 drop⟺ghost
// invariant: both sides observe a lost batch in lockstep and re-post it —
// the whole batch — under an attempt-keyed tag. Give-ups name the batch
// and its member transfers in the post-mortem.

// batchTag is the tag coalesced batch traffic uses, a distinct FIFO stream
// from directiveTag so batched and unbatched transfers on the same pair can
// never cross-match. Retries ride attempt-keyed tags exactly like retry.go:
// batchTag + attempt<<retryTagShift stays far below MaxUserTag.
const batchTag = 12

// batchAcc accumulates pending outgoing parts for one destination.
type batchAcc struct {
	parts []mpi.BatchPart
}

// coalescer is the environment's pending coalesced traffic. It lives on
// the Env, not the region ledger: a place_sync/auto-sync deferral carries
// open batches across region boundaries (widening the coalescing window),
// and a receiver's stash outlives any single region by construction.
type coalescer struct {
	sends     map[int]*batchAcc       // dest comm rank → pending parts, program order
	recvs     map[int]*mpi.BatchQueue // source comm rank → pending scatter destinations
	sendParts int
}

func (co *coalescer) empty() bool {
	if co.sendParts > 0 {
		return false
	}
	for _, q := range co.recvs {
		if q.Pending() > 0 {
			return false
		}
	}
	return true
}

func (co *coalescer) accFor(peer int) *batchAcc {
	if co.sends == nil {
		co.sends = make(map[int]*batchAcc)
	}
	a := co.sends[peer]
	if a == nil {
		a = &batchAcc{}
		co.sends[peer] = a
	}
	return a
}

func (co *coalescer) queueFor(peer int) *mpi.BatchQueue {
	if co.recvs == nil {
		co.recvs = make(map[int]*mpi.BatchQueue)
	}
	q := co.recvs[peer]
	if q == nil {
		q = &mpi.BatchQueue{}
		co.recvs[peer] = q
	}
	return q
}

func sortedRanks[T any](m map[int]T) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// coalesceP2P diverts one two-sided directive's transfers into the
// coalescer if every part qualifies, returning handled=false (and posting
// nothing) when the directive must take the normal emitMPI2Side path. A
// directive coalesces whole or not at all, and eligibility depends only on
// per-part wire sizes and the shared profile — both identical on the two
// endpoint ranks — so the sender and receiver of a transfer always agree.
func (e *Env) coalesceP2P(r *Region, sinfos, rinfos []*bufInfo, count int, doSend, doRecv bool, sendTo, recvFrom int) (bool, error) {
	p := e.comm.SPMD().Profile()
	payloadCap := rt.BatchPayloadCap(p.MPIEagerThreshold, mpi.BatchHeaderMax)
	if payloadCap <= 0 {
		// Eager threshold too small to carry any batch: coalescing off.
		return false, nil
	}
	me := e.comm.Rank()
	if (doSend && sendTo == me) || (doRecv && recvFrom == me) {
		// Self-transfers keep the plain path's local-delivery semantics.
		return false, nil
	}

	// Resolve every part's view and datatype and check eligibility before
	// committing anything to the batch state.
	var sparts, rparts []mpi.BatchPart
	if doSend {
		sparts = make([]mpi.BatchPart, 0, len(sinfos))
		for i, b := range sinfos {
			bp, ok, err := e.batchPart(b, count)
			if err != nil {
				return false, fmt.Errorf("core: sbuf[%d]: %w", i, err)
			}
			if !ok || !rt.PartEligible(bp.Bytes(), payloadCap) {
				return false, nil
			}
			sparts = append(sparts, bp)
		}
	}
	if doRecv {
		rparts = make([]mpi.BatchPart, 0, len(rinfos))
		for i, b := range rinfos {
			bp, ok, err := e.batchPart(b, count)
			if err != nil {
				return false, fmt.Errorf("core: rbuf[%d]: %w", i, err)
			}
			if !ok || !rt.PartEligible(bp.Bytes(), payloadCap) {
				return false, nil
			}
			rparts = append(rparts, bp)
		}
	}

	if doRecv {
		q := e.co.queueFor(recvFrom)
		for i, bp := range rparts {
			if err := q.Add(bp.Buf, bp.Count, bp.Dt); err != nil {
				return true, fmt.Errorf("core: rbuf[%d]: %w", i, err)
			}
		}
	}
	if doSend {
		acc := e.co.accFor(sendTo)
		acc.parts = append(acc.parts, sparts...)
		e.co.sendParts += len(sparts)
	}
	return true, nil
}

// batchPart resolves one buffer into a batch member. ok=false means the
// buffer shape cannot be batched (without being an error).
func (e *Env) batchPart(b *bufInfo, count int) (mpi.BatchPart, bool, error) {
	view, err := b.mpiView(e)
	if err != nil {
		return mpi.BatchPart{}, false, err
	}
	dt, err := e.datatype(b)
	if err != nil {
		return mpi.BatchPart{}, false, err
	}
	n := count
	if !b.isArray {
		n = 1
	}
	return mpi.BatchPart{Buf: view, Count: n, Dt: dt}, true, nil
}

// liveBatch tracks one in-flight batch message through the completion
// rounds of flushCoalesced.
type liveBatch struct {
	req     *mpi.Request
	peer    int // comm rank
	isSend  bool
	attempt int
	parts   []mpi.BatchPart // send side: retained for re-expression (faults only)
	q       *mpi.BatchQueue // recv side
}

// batchPrefix reports how many leading parts fit in one batch under the
// part-count and payload caps, and their total payload bytes.
func batchPrefix(parts []mpi.BatchPart, payloadCap int) (k, bytes int) {
	for k < len(parts) && k < rt.MaxBatchParts {
		b := parts[k].Bytes()
		if k > 0 && bytes+b > payloadCap {
			break
		}
		bytes += b
		k++
	}
	return k, bytes
}

// flushCoalesced drains the environment's pending coalesced traffic: close
// and post every outgoing batch, post one scatter receive per source with
// pending parts, and run completion rounds until everything lands. On a
// fault-injecting fabric the rounds mirror waitWithRetry — deterministic
// backoff, attempt-keyed re-posts, give-up on dead peers or budget — with
// the batch as the unit of retry. Runs before the ledger's Waitall (flush
// posts all sends before any blocking wait, so two ranks flushing
// mid-region cannot deadlock each other any more than the plain path can).
func (e *Env) flushCoalesced(region int) error {
	co := &e.co
	if co.empty() {
		return nil
	}
	rk := e.comm.SPMD()
	p := rk.Profile()
	payloadCap := rt.BatchPayloadCap(p.MPIEagerThreshold, mpi.BatchHeaderMax)
	var live []*liveBatch

	// Stashed payloads first: parts delivered by an earlier, larger batch
	// complete as local copies with no wire traffic at all.
	for _, peer := range sortedRanks(co.recvs) {
		q := co.recvs[peer]
		if q.StashDepth() == 0 || q.Pending() == 0 {
			continue
		}
		cost, consumed, err := q.ConsumeStash(p)
		if err != nil {
			return fmt.Errorf("core: coalesced recv from rank %d: %w", peer, err)
		}
		if consumed > 0 {
			rk.Clock().Advance(cost)
			e.tele.coStash.Add(int64(consumed))
		}
	}

	// Close and post outgoing batches (attempt 1). Partitioning is greedy
	// in program order under static caps, so it is deterministic and needs
	// no agreement with the receiver.
	for _, peer := range sortedRanks(co.sends) {
		acc := co.sends[peer]
		parts := acc.parts
		for len(parts) > 0 {
			k, bytes := batchPrefix(parts, payloadCap)
			batch := parts[:k]
			req, err := e.comm.IsendBatch(batch, peer, batchTag)
			if err != nil {
				return fmt.Errorf("core: coalesced send to rank %d: %w", peer, err)
			}
			lb := &liveBatch{req: req, peer: peer, isSend: true, attempt: 1}
			if e.faults {
				// The accumulator's backing array is recycled after this
				// flush; retries need their own copy of the intent.
				lb.parts = append([]mpi.BatchPart(nil), batch...)
			}
			live = append(live, lb)
			e.tele.coBatches.Inc()
			e.tele.coParts.Add(int64(k))
			e.tele.coSaved.Add(int64(k - 1))
			e.tele.coHeaderBytes.Add(int64(mpi.BatchHeaderSize(k)))
			e.tele.coPayloadBytes.Add(int64(bytes))
			e.tele.coBatchParts.Observe(model.Time(k))
			e.tele.decCoalesce.Inc()
			e.noteBatch(region, peer, k, bytes)
			parts = parts[k:]
		}
		acc.parts = acc.parts[:0]
	}
	co.sendParts = 0

	// One scatter receive per source with pending parts; successive batches
	// from the same source share the batchTag FIFO stream, so follow-up
	// receives are posted as earlier ones complete.
	for _, peer := range sortedRanks(co.recvs) {
		q := co.recvs[peer]
		if q.Pending() == 0 {
			continue
		}
		req, err := e.comm.IrecvBatch(q, peer, batchTag)
		if err != nil {
			return fmt.Errorf("core: coalesced recv from rank %d: %w", peer, err)
		}
		live = append(live, &liveBatch{req: req, peer: peer, attempt: 1, q: q})
	}

	// Completion rounds.
	reqs := make([]*mpi.Request, 0, len(live))
	for len(live) > 0 {
		reqs = reqs[:0]
		for _, b := range live {
			reqs = append(reqs, b.req)
		}
		if !e.faults {
			if err := e.comm.WaitallIgnore(reqs); err != nil {
				return err
			}
			next := live[:0]
			for _, b := range live {
				if nb, err := e.nextBatchRecv(b); err != nil {
					return err
				} else if nb {
					next = append(next, b)
				}
			}
			live = next
			continue
		}
		errs, firstErr := e.comm.WaitallTimeout(reqs, e.retry.OpTimeout)
		if firstErr != nil && errs == nil {
			return firstErr // hard usage error, not a fabric fault
		}
		next := live[:0]
		var failed []*liveBatch
		maxAttempt := 0
		for i, b := range live {
			if errs == nil || errs[i] == nil {
				if nb, err := e.nextBatchRecv(b); err != nil {
					return err
				} else if nb {
					b.attempt = 1
					next = append(next, b)
				}
				continue
			}
			opErr := errs[i]
			if errors.Is(opErr, mpi.ErrPeerDead) {
				e.tele.giveups.Inc()
				e.reportBatchGiveup(b, region, opErr, "peer declared dead")
				return fmt.Errorf("core: coalesced batch in region %d: %w", region, opErr)
			}
			if b.attempt >= e.retry.MaxAttempts {
				e.tele.giveups.Inc()
				e.reportBatchGiveup(b, region, opErr, "retry budget exhausted")
				return fmt.Errorf("core: coalesced batch in region %d gave up after %d attempts: %w",
					region, b.attempt, opErr)
			}
			failed = append(failed, b)
			if b.attempt > maxAttempt {
				maxAttempt = b.attempt
			}
		}
		if len(failed) > 0 {
			// Lockstep backoff: both sides of every failed batch observed
			// the same fault (drop⟺ghost), so both re-post under the same
			// attempt-keyed tag after the same deterministic pause.
			rk.Clock().Advance(e.retry.Backoff << (maxAttempt - 1))
			for _, b := range failed {
				tag := batchTag + b.attempt<<retryTagShift
				b.attempt++
				var req *mpi.Request
				var err error
				if b.isSend {
					req, err = e.comm.IsendBatch(b.parts, b.peer, tag)
				} else {
					req, err = e.comm.IrecvBatch(b.q, b.peer, tag)
				}
				if err != nil {
					return err
				}
				b.req = req
				next = append(next, b)
				e.tele.retries.Inc()
			}
		}
		live = next
	}
	return nil
}

// nextBatchRecv posts the follow-up scatter receive for a completed batch
// receive whose source still has pending parts (the sender partitioned
// into more batches than one). Reports whether b stays live.
func (e *Env) nextBatchRecv(b *liveBatch) (bool, error) {
	if b.isSend || b.q.Pending() == 0 {
		return false, nil
	}
	req, err := e.comm.IrecvBatch(b.q, b.peer, batchTag)
	if err != nil {
		return false, fmt.Errorf("core: coalesced recv from rank %d: %w", b.peer, err)
	}
	b.req = req
	return true, nil
}

// reportBatchGiveup files the flight-recorder post-mortem for a coalesced
// batch the retry protocol is abandoning, naming the batch and its member
// transfers.
func (e *Env) reportBatchGiveup(b *liveBatch, region int, opErr error, why string) {
	rk := e.comm.SPMD()
	var opName, members string
	if b.isSend {
		opName = "comm_p2p coalesced batch send"
		sizes := make([]string, len(b.parts))
		for i, bp := range b.parts {
			sizes[i] = fmt.Sprintf("%dB", bp.Bytes())
		}
		members = fmt.Sprintf("%d member transfer(s): %v", len(b.parts), sizes)
	} else {
		opName = "comm_p2p coalesced batch recv"
		members = fmt.Sprintf("%d pending member transfer(s)", b.q.Pending())
	}
	kind := transport.FaultNone
	var fe *mpi.FaultError
	if errors.As(opErr, &fe) {
		kind = fe.Kind
	}
	rk.World().Fabric().ReportFailure(simnet.FailingOp{
		Rank:   rk.ID,
		Op:     opName,
		Peer:   e.comm.WorldRank(b.peer),
		Tag:    -1,
		Region: rk.Endpoint().RegionID(),
		Kind:   kind,
		Reason: fmt.Sprintf("%s for coalesced batch (%s) in comm_p2p region %d after %d attempt(s): %v",
			why, members, region, b.attempt, opErr),
		V: rk.Now(),
	})
}
