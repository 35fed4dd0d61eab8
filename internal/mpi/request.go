package mpi

import (
	"fmt"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/transport"
)

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source int // comm rank of the sender
	Tag    int // user tag
	Bytes  int // payload bytes delivered
}

// Count reports the number of elements of datatype d delivered.
func (s Status) Count(d *Datatype) int {
	if d.Size() == 0 {
		return 0
	}
	return s.Bytes / d.Size()
}

// Request tracks a non-blocking operation until completion.
type Request struct {
	comm *Comm

	send       transport.SendResult // valid when isSend; held by value to keep Request flat
	recv       transport.RecvHandle
	isSend     bool
	rendezvous bool // send larger than the eager threshold
	inPlace    bool // receive posted on recvBuf's own bytes: wire is a view, not a pooled buffer

	// Receive-side decode state.
	wire      []byte
	recvBuf   any
	recvCount int
	dt        *Datatype
	batch     *BatchQueue // coalesced receive: scatter destinations (dt/recvBuf unused)

	destWorld int // world rank of a send's destination, for watchdog withdrawal

	done       bool
	claimed    bool // consumed by Waitany
	unexpected bool // receive found its message already queued; cached at finish
	status     Status
	readyV     model.Time // virtual completion time, set when finished
	err        error      // sticky typed fault, re-returned by later waits
}

// IsSend reports whether this tracks a send.
func (r *Request) IsSend() bool { return r.isSend }

// Status returns the completed operation's status. Only valid after a
// successful Wait/Test/Waitall.
func (r *Request) Status() Status { return r.status }

// CompletionV reports the virtual time at which the operation's data was
// complete (not including the waiting call's own overhead). Only valid
// after completion.
func (r *Request) CompletionV() model.Time { return r.readyV }

// Unexpected reports whether a completed receive found its message already
// queued (it arrived, in virtual time, before the receive was posted).
// Always false for sends; only valid after completion. The value is cached
// at finish time because the underlying receive request is recycled then.
func (r *Request) Unexpected() bool {
	return r.done && r.unexpected
}

// finish blocks (real time) until the request's data movement is done, then
// computes its virtual completion time and decodes the payload. It charges
// no call overhead itself; Wait/Waitall/Test add their own.
func (r *Request) finish() error {
	return r.finishDeadline(0)
}

// finishDeadline is finish under a virtual deadline D (0 = none). On a
// healthy fabric with no deadline it is byte-for-byte the old finish() —
// the fault branches are gated on injector verdicts and D — so injection-off
// virtual times are untouched. With a deadline, the wait is backstopped by
// the communicator's real-time watchdog: if it fires, the pending receive
// (or unmatched rendezvous send) is withdrawn and the request fails with
// ErrDeadline charged at D. Injected faults (drop ghosts, dead peers) do not
// involve the watchdog at all; they resolve promptly in real time at their
// deterministic virtual times.
func (r *Request) finishDeadline(D model.Time) error {
	if r.done {
		return r.err
	}
	p := r.comm.prof()
	if r.isSend {
		if r.rendezvous {
			// Rendezvous: the send completes only once the matching
			// receive is posted; the clearing ack costs one more latency.
			if D > 0 {
				if !r.send.Msg.WaitMatchedTimeout(r.comm.watchdog()) {
					if r.comm.port.CancelMsg(r.destWorld, r.send.Msg) {
						return r.failSend(transport.FaultCancelled, model.Max(D, r.send.LocalV), D)
					}
					// Lost the race: the match is completing concurrently.
				}
				r.send.Msg.WaitMatched()
			} else {
				r.send.Msg.WaitMatched()
			}
			if r.comm.wall {
				// Measured: the handshake cleared the moment WaitMatched
				// returned; no modelled clearing latency to add.
				r.readyV = r.comm.clock().Now()
			} else {
				r.readyV = model.Max(r.send.LocalV, r.send.Msg.MatchV()+p.MPILatency)
			}
			if stall := r.readyV - r.send.LocalV; stall > 0 {
				r.comm.tele.stalls.Inc()
				r.comm.tele.stallNS.AddTime(stall)
			}
			if r.send.Fault != transport.FaultNone {
				// The ghost matched a receive (so the handshake resolved),
				// but the payload never arrived.
				return r.failSend(r.send.Fault, r.readyV, D)
			}
		} else {
			// Eager: the send buffer was reusable at call time.
			if r.send.Fault != transport.FaultNone {
				return r.failSend(r.send.Fault, r.send.LocalV, D)
			}
			r.readyV = r.send.LocalV
		}
		r.done = true
		return nil
	}
	if D > 0 && !r.recv.WaitTimeout(r.comm.watchdog()) {
		// Withdraw it. Won or lost (a delivery is completing), the receive
		// completes, and the Wait below consumes that completion.
		r.comm.port.CancelRecv(r.recv)
	}
	r.recv.Wait()
	if f := r.recv.Fault(); f != transport.FaultNone {
		return r.failRecv(f, D)
	}
	n := r.recv.Len()
	src := r.recv.Src()
	tag := r.recv.Tag()
	r.unexpected = r.recv.Unexpected()
	ready := model.Max(r.recv.ArriveV(), r.recv.PostV()) + p.MPIMatchCost + p.RecvCopyTime(n)
	if r.unexpected {
		ready += p.MPIUnexpected
	}
	// Everything needed from the receive has been read; recycle it before
	// the (potentially costly) decode.
	r.recv.Release()
	r.recv = nil
	var cost model.Time
	var err error
	switch {
	case r.inPlace:
		// The transport's copy landed the payload in recvBuf itself.
	case r.batch != nil:
		cost, err = r.batch.scatter(p, r.wire[:n])
		if err != nil {
			return err
		}
	default:
		count := r.recvCount
		if max := n / r.dt.Size(); max < count {
			count = max
		}
		cost, err = r.dt.decode(p, r.wire[:n], r.recvBuf, count)
		if err != nil {
			return fmt.Errorf("mpi: recv decode: %w", err)
		}
	}
	r.dropWire()
	ready += cost
	if r.comm.wall {
		// Measured: the payload is decoded and in place right now; the
		// modelled match/copy charges above are zero in wall mode anyway.
		ready = r.comm.clock().Now()
	}
	srcComm := r.comm.commRankOf(src)
	r.status = Status{Source: srcComm, Tag: tag - r.comm.tagBase, Bytes: n}
	r.readyV = ready
	r.done = true
	r.comm.emit(simnet.Event{
		Rank: r.comm.rk.ID, Kind: simnet.EvRecvComplete,
		Peer: src, Tag: r.status.Tag, Bytes: n, V: ready,
	})
	return nil
}

// dropWire lets go of a completed receive's wire bytes: a staging buffer
// goes back to the payload pool, an in-place view must not — PutBuf adopts
// any buffer whose capacity is a class size, and would hand the caller's
// storage to the next GetBuf.
func (r *Request) dropWire() {
	if !r.inPlace {
		transport.PutBuf(r.wire)
	}
	r.wire = nil
}

// failSend completes a faulted send: the request is done (re-waiting returns
// the same sticky error), charged at ready, with the typed fault recorded.
func (r *Request) failSend(k transport.FaultKind, ready, D model.Time) error {
	r.readyV = ready
	r.done = true
	r.comm.countFault(k)
	r.err = &FaultError{Op: "send", Peer: r.comm.commRankOf(r.destWorld), Kind: k, Deadline: D}
	if k == transport.FaultCancelled {
		// A watchdog trip is a terminal failure (the message was never
		// matched and has been withdrawn), unlike per-attempt injector
		// verdicts the retry protocol absorbs — capture the forensics now.
		r.comm.reportFailure("MPI send (rendezvous)", r.destWorld, k, ready,
			"real-time watchdog cancelled an unmatched rendezvous send")
	}
	return r.err
}

// reportFailure files a post-mortem dump with the fabric for a terminal
// fault on this rank. peer is a world rank (-1 when unknown).
func (c *Comm) reportFailure(op string, peer int, k transport.FaultKind, v model.Time, reason string) {
	c.fab.ReportFailure(simnet.FailingOp{
		Rank: c.rk.ID, Op: op, Peer: peer, Tag: -1,
		Region: c.ep().RegionID(), Kind: k, Reason: reason, V: v,
	})
}

// failRecv completes a faulted receive. A drop or dead-peer ghost resolves
// at its deterministic ghost-visible time max(arrive, post); a watchdog
// cancellation — the only nondeterministic trigger — is charged at the
// virtual deadline D, which is itself deterministic. Either way the pooled
// resources go back and the request is done with a sticky typed error.
func (r *Request) failRecv(k transport.FaultKind, D model.Time) error {
	src := r.recv.Src() // -1 for a cancellation
	ready := model.Max(r.recv.ArriveV(), r.recv.PostV())
	r.recv.Release()
	r.recv = nil
	r.dropWire()
	if k == transport.FaultCancelled {
		ready = model.Max(D, ready)
	}
	peer := -1
	if src >= 0 {
		peer = r.comm.commRankOf(src)
	}
	r.status = Status{Source: peer, Tag: -1, Bytes: 0}
	r.readyV = ready
	r.done = true
	r.comm.countFault(k)
	r.err = &FaultError{Op: "recv", Peer: peer, Kind: k, Deadline: D}
	if k == transport.FaultCancelled {
		r.comm.reportFailure("MPI recv", src, k, ready,
			"real-time watchdog cancelled a receive nothing was sent for")
	}
	return r.err
}

// Wait blocks until the request completes, charging one MPI_Wait call.
// This is the per-request completion style whose cost the paper's Figure 4
// highlights. Under the communicator's default deadline (SetDefaultTimeout)
// a faulted operation returns its typed error after the clock has advanced
// to the fault's virtual resolution.
func (c *Comm) Wait(r *Request) (Status, error) {
	return c.wait(r, c.opDeadline())
}

func (c *Comm) wait(r *Request, D model.Time) (Status, error) {
	start := c.clock().Now()
	sp := c.span("MPI_Wait", start)
	err := r.finishDeadline(D)
	if err != nil && !IsFault(err) {
		return Status{}, err
	}
	clk := c.clock()
	clk.Advance(c.prof().MPIWaitEach)
	idle := r.readyV - clk.Now()
	if c.wall {
		// Measured: the wall time this call actually spent blocked, fed
		// into the same idle/wait histograms the virtual path fills.
		idle = r.readyV - start
	}
	if idle < 0 {
		idle = 0
	}
	clk.AdvanceTo(r.readyV)
	c.tele.idle.AddTime(idle)
	c.tele.waitNS.Observe(idle)
	c.observeRegionWait(idle)
	if c.traced || c.fab.Observed() {
		// One shared clock read: with neither a tracer nor observers the
		// span End and the emit are both no-ops, and in wall mode the
		// monotonic read they would stamp is the hot path's single biggest
		// line item.
		end := clk.Now()
		sp.End(end)
		c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvWait, Peer: -1, V: end, Idle: idle})
	}
	return r.status, err
}

// Waitall blocks until all requests complete, charging a single
// MPI_Waitall call (base + per-request increment). This is the consolidated
// completion the directive layer generates. Under a default deadline a
// faulted batch still completes every request (so no resource leaks), then
// reports the first typed fault; WaitallTimeout exposes the per-request
// outcomes that the directive layer's retry protocol needs.
func (c *Comm) Waitall(reqs []*Request) ([]Status, error) {
	stats := make([]Status, len(reqs))
	if _, err := c.waitallImpl(reqs, stats, c.opDeadline()); err != nil {
		return nil, err
	}
	return stats, nil
}

// WaitallIgnore is Waitall with MPI_STATUSES_IGNORE: the same call, the
// same charges, no status array. Each request's own Status stays readable.
func (c *Comm) WaitallIgnore(reqs []*Request) error {
	_, err := c.waitallImpl(reqs, nil, c.opDeadline())
	return err
}

// waitallImpl is the shared body of Waitall, WaitallIgnore and
// WaitallTimeout; stats, when not nil, receives the statuses. Charging is
// identical to the historical Waitall on a clean batch — one WaitallTime
// advance plus a jump to the latest readiness — so injection-off virtual
// times are unchanged. Faulted requests contribute their fault-resolution
// times to the jump and their errors to errs.
func (c *Comm) waitallImpl(reqs []*Request, stats []Status, D model.Time) ([]error, error) {
	start := c.clock().Now()
	sp := c.span("MPI_Waitall", start)
	var errs []error
	var firstErr error
	var maxReady model.Time
	for i, r := range reqs {
		if r == nil {
			continue
		}
		if err := r.finishDeadline(D); err != nil {
			if !IsFault(err) {
				return nil, err
			}
			if errs == nil {
				errs = make([]error, len(reqs))
			}
			errs[i] = err
			if firstErr == nil {
				firstErr = err
			}
		}
		if stats != nil {
			stats[i] = r.status
		}
		if r.readyV > maxReady {
			maxReady = r.readyV
		}
	}
	clk := c.clock()
	clk.Advance(c.prof().WaitallTime(len(reqs)))
	idle := maxReady - clk.Now()
	if c.wall {
		// Measured wall time spent completing the batch (see wait).
		idle = maxReady - start
	}
	if idle < 0 {
		idle = 0
	}
	clk.AdvanceTo(maxReady)
	c.tele.idle.AddTime(idle)
	c.tele.waitNS.Observe(idle)
	c.observeRegionWait(idle)
	if c.traced || c.fab.Observed() {
		end := clk.Now() // shared read; see wait
		sp.End(end)
		c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvSync, Peer: -1, Bytes: len(reqs), V: end, Idle: idle})
	}
	return errs, firstErr
}

// Waitany blocks until at least one request completes and returns its
// index. Completed requests are chosen by earliest virtual readiness to
// keep runs deterministic.
func (c *Comm) Waitany(reqs []*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, fmt.Errorf("mpi: Waitany on empty request list")
	}
	// Deterministic choice: among requests that are already matched, pick
	// the one with the earliest virtual completion; otherwise block on the
	// first live receive in list order and retry.
	for {
		best := -1
		anyLive := false
		for i, r := range reqs {
			if r == nil || r.claimed {
				continue
			}
			anyLive = true
			if r.isSend || r.done || r.recv.Matched() {
				if err := r.finish(); err != nil {
					return -1, Status{}, err
				}
				if best == -1 || r.readyV < reqs[best].readyV {
					best = i
				}
			}
		}
		if !anyLive {
			return -1, Status{}, fmt.Errorf("mpi: Waitany: all requests already consumed")
		}
		if best >= 0 {
			r := reqs[best]
			r.claimed = true
			clk := c.clock()
			clk.Advance(c.prof().MPIWaitEach)
			if idle := r.readyV - clk.Now(); idle > 0 {
				c.tele.idle.AddTime(idle)
				c.tele.waitNS.Observe(idle)
			}
			clk.AdvanceTo(r.readyV)
			return best, r.status, nil
		}
		for _, r := range reqs {
			if r != nil && !r.claimed && r.recv != nil {
				r.recv.Wait()
				break
			}
		}
	}
}

// Test reports, without blocking, whether the request has completed; if it
// has, the request is finished and its status returned. One MPI_Test call
// is charged either way.
func (c *Comm) Test(r *Request) (bool, Status, error) {
	c.clock().Advance(c.prof().MPITestEach)
	// r.done must be consulted first: a finished receive has had its
	// underlying request recycled.
	if !r.isSend && !r.done && !r.recv.Matched() {
		return false, Status{}, nil
	}
	if err := r.finish(); err != nil {
		return false, Status{}, err
	}
	// An operation is only observable as complete once virtual time has
	// caught up with it.
	if r.readyV > c.clock().Now() {
		return false, Status{}, nil
	}
	return true, r.status, nil
}

// Waitsome blocks until at least one request completes, then returns the
// indices and statuses of every request whose completion is observable at
// the resulting virtual time — the batch-draining middle ground between
// Waitany and Waitall. Completed requests are consumed.
func (c *Comm) Waitsome(reqs []*Request) ([]int, []Status, error) {
	first, st, err := c.Waitany(reqs)
	if err != nil {
		return nil, nil, err
	}
	idxs := []int{first}
	stats := []Status{st}
	now := c.clock().Now()
	for i, r := range reqs {
		if r == nil || r.claimed {
			continue
		}
		if r.isSend || r.done || r.recv.Matched() {
			if err := r.finish(); err != nil {
				return nil, nil, err
			}
			if r.readyV <= now {
				r.claimed = true
				idxs = append(idxs, i)
				stats = append(stats, r.status)
			}
		}
	}
	return idxs, stats, nil
}
