package core

import (
	"errors"
	"fmt"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/transport"
)

// Retry semantics for comm_p2p on a faulty fabric. The directive layer is
// the right place for this recovery: the *intent* — which buffer must reach
// which peer — survives in the region's clauses, so a lost transfer can be
// re-expressed from intent, which raw MPI call sites cannot do (the paper's
// portability argument applied to fault tolerance).
//
// The protocol is lockstep and acknowledgement-free, built on the fabric's
// drop⟺ghost invariant: when an attempt is dropped, the sender's request
// fails synchronously and the receiver's request fails via the delivered
// ghost — both sides observe the same per-attempt outcome. Each retry is
// re-posted under an attempt-keyed tag (directiveTag + attempt<<retryTagShift),
// so a retry can never be satisfied by a stale duplicate of an earlier
// attempt and the re-send is idempotent. Both sides run the same rounds with
// the same outcomes, so the pairing never desynchronises and virtual time
// stays deterministic.

// retryTagShift positions the attempt number inside the user tag space:
// directiveTag + attempt<<16 stays far below MaxUserTag for every permitted
// attempt count.
const retryTagShift = 16

// maxRetryAttempts bounds RetryPolicy.MaxAttempts so attempt-keyed tags fit
// the user tag space.
const maxRetryAttempts = 15

// RetryPolicy governs comm_p2p recovery on a fault-injecting fabric.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per transfer (the original
	// plus retries). At most maxRetryAttempts.
	MaxAttempts int
	// Backoff is the virtual pause before re-sending; attempt k waits
	// Backoff << (k-1), a standard exponential schedule.
	Backoff model.Time
	// OpTimeout is the per-round virtual deadline handed to WaitallTimeout.
	OpTimeout model.Time
}

// defaultRetryPolicy scales the schedule to the machine's latency.
func defaultRetryPolicy(p *model.Profile) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 5,
		Backoff:     4 * p.MPILatency,
		OpTimeout:   64 * p.MPILatency,
	}
}

// SetRetryPolicy overrides the environment's retry schedule. Zero fields
// keep their defaults; MaxAttempts is clamped to the tag-space bound.
func (e *Env) SetRetryPolicy(rp RetryPolicy) {
	if rp.MaxAttempts > 0 {
		e.retry.MaxAttempts = min(rp.MaxAttempts, maxRetryAttempts)
	}
	if rp.Backoff > 0 {
		e.retry.Backoff = rp.Backoff
	}
	if rp.OpTimeout > 0 {
		e.retry.OpTimeout = rp.OpTimeout
	}
}

// reportGiveup files a flight-recorder post-mortem for a comm_p2p transfer
// the retry protocol is abandoning — the terminal failure, not the per-
// attempt faults the protocol absorbs. The dump captures the failing intent
// (direction, peer, directive region) plus both ranks' recent event tails
// and unmatched frontiers.
func (e *Env) reportGiveup(op *planOp, region, attempts int, opErr error, why string) {
	rk := e.comm.SPMD()
	opName := "comm_p2p recv"
	if op.kind == opIsend {
		opName = "comm_p2p send"
	}
	kind := transport.FaultNone
	var fe *mpi.FaultError
	if errors.As(opErr, &fe) {
		kind = fe.Kind
	}
	rk.World().Fabric().ReportFailure(simnet.FailingOp{
		Rank:   rk.ID,
		Op:     opName,
		Peer:   e.comm.WorldRank(int(op.peer)),
		Tag:    -1,
		Region: rk.Endpoint().RegionID(),
		Kind:   kind,
		Reason: fmt.Sprintf("%s in comm_p2p region %d after %d attempt(s): %v", why, region, attempts, opErr),
		V:      rk.Now(),
	})
}

// waitWithRetry is flush's completion path on a fault-injecting fabric: a
// round-structured Waitall that re-sends failed transfers under attempt-
// keyed tags until everything lands, a peer proves dead, or the attempt
// budget runs out. l.resend[i] must describe l.reqs[i].
func (e *Env) waitWithRetry(l *ledger, region int) error {
	reqs := l.reqs
	ops := l.resend
	attempt := make([]int, len(reqs)) // tries so far per op
	for i := range attempt {
		attempt[i] = 1
	}
	for {
		errs, firstErr := e.comm.WaitallTimeout(reqs, e.retry.OpTimeout)
		if firstErr == nil {
			return nil
		}
		if errs == nil {
			return firstErr // hard usage error, not a fabric fault
		}
		var failed []int
		maxAttempt := 0
		for i, opErr := range errs {
			if opErr == nil {
				continue
			}
			if errors.Is(opErr, mpi.ErrPeerDead) {
				// A dead peer is never coming back; retrying would only
				// burn the budget.
				e.tele.giveups.Inc()
				e.reportGiveup(&ops[i], region, attempt[i], opErr, "peer declared dead")
				return fmt.Errorf("core: comm_p2p region %d: %w", region, opErr)
			}
			if attempt[i] >= e.retry.MaxAttempts {
				e.tele.giveups.Inc()
				e.reportGiveup(&ops[i], region, attempt[i], opErr, "retry budget exhausted")
				return fmt.Errorf("core: comm_p2p region %d gave up after %d attempts: %w",
					region, attempt[i], opErr)
			}
			failed = append(failed, i)
			if attempt[i] > maxAttempt {
				maxAttempt = attempt[i]
			}
		}
		// Both sides of every failed transfer observed the same fault (the
		// drop⟺ghost invariant), so both arrive here in the same round and
		// back off by the same deterministic amount.
		e.comm.SPMD().Clock().Advance(e.retry.Backoff << (maxAttempt - 1))
		for _, i := range failed {
			op := &ops[i]
			tag := directiveTag + attempt[i]<<retryTagShift
			attempt[i]++
			// A request completed with a fault is inactive: the re-post
			// goes into the same one, whichever ledger's store it is in.
			var err error
			if op.kind == opIsend {
				err = e.comm.IsendInto(reqs[i], op.buf, int(op.count), op.dt, int(op.peer), tag)
			} else {
				err = e.comm.IrecvInto(reqs[i], op.buf, int(op.count), op.dt, int(op.peer), tag)
			}
			if err != nil {
				return err
			}
			e.tele.retries.Inc()
		}
	}
}
