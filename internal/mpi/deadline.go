package mpi

import (
	"errors"
	"fmt"
	"time"

	"commintent/internal/model"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

// Deadline-aware completion. On a faulty fabric (simnet.Fabric.SetFaults) a
// blocked Recv/Wait must never become a hang: injected drops and dead peers
// already resolve promptly, because the fabric delivers a payload-free ghost
// that completes the matching receive with its fault kind attached. The one
// case no ghost can cover is traffic that was never sent at all — the peer
// errored out, or the program is simply wrong. For that, deadline-aware
// waits arm a coarse real-time watchdog; when it fires, the posted receive
// (or unmatched rendezvous send) is withdrawn from the matching engine and
// the operation fails with ErrDeadline, charged at its virtual deadline.
//
// The split keeps virtual time deterministic: every *injected* fault has a
// virtual completion computed purely from seeded decisions (same-seed runs
// are bit-identical), while the watchdog — the only real-time actor — fires
// solely for operations with no deterministic resolution to perturb.

// Typed fault errors, re-exported from transport so callers need only this
// package. Match with errors.Is.
var (
	// ErrDeadline: the operation's deadline passed with nothing delivered.
	ErrDeadline = transport.ErrDeadline
	// ErrPeerDead: the peer rank is configured dead in the fault injector.
	ErrPeerDead = transport.ErrPeerDead
	// ErrMessageLost: the fabric dropped the message.
	ErrMessageLost = transport.ErrMessageLost
)

// DefaultWatchdog is the real-time backstop armed by deadline-aware waits
// when the communicator has no explicit watchdog configured. It only needs
// to exceed any legitimate real-time wait, so it is deliberately coarse.
const DefaultWatchdog = 10 * time.Second

// FaultError is the typed error returned by deadline-aware completion. It
// unwraps to the matching sentinel (ErrMessageLost, ErrPeerDead or
// ErrDeadline), so errors.Is works against either the sentinel or the
// concrete value.
type FaultError struct {
	Op       string              // "send" or "recv"
	Peer     int                 // comm rank of the peer; -1 when unknown
	Kind     transport.FaultKind // what happened
	Deadline model.Time          // virtual deadline in force; 0 if none
}

func (e *FaultError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("mpi: %s peer %d: %s", e.Op, e.Peer, e.Kind)
	}
	return fmt.Sprintf("mpi: %s: %s", e.Op, e.Kind)
}

func (e *FaultError) Unwrap() error { return e.Kind.Err() }

// IsFault reports whether err is (or wraps) a FaultError — a typed fabric
// fault, as opposed to a hard usage error such as a decode mismatch.
func IsFault(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe)
}

// P2PFaultScope returns the (span, user) pair for simnet.FaultConfig's tag
// scoping such that injection hits exactly user point-to-point traffic:
// every communicator owns a tag window of span wire tags with user tags in
// the low half and collective control traffic — whose replay protocol
// assumes lossless delivery — in the high half.
func P2PFaultScope() (span, user int) { return tagSpan, MaxUserTag }

// SetDefaultTimeout gives every subsequent blocking completion on this
// communicator an implicit deadline of d virtual ns from the call; zero
// restores unbounded waits. Inherited by communicators made with Split.
func (c *Comm) SetDefaultTimeout(d model.Time) { c.defTimeout = d }

// SetWatchdog overrides the real-time watchdog armed by deadline-aware
// waits (DefaultWatchdog when zero). Inherited by Split.
func (c *Comm) SetWatchdog(d time.Duration) { c.wdog = d }

// opDeadline resolves the communicator's default deadline for an operation
// starting now (0 = none).
func (c *Comm) opDeadline() model.Time {
	if c.defTimeout <= 0 {
		return 0
	}
	return c.clk.Now() + c.defTimeout
}

func (c *Comm) watchdog() time.Duration {
	if c.wdog > 0 {
		return c.wdog
	}
	return DefaultWatchdog
}

// countFault bumps the per-kind fault counter.
func (c *Comm) countFault(k transport.FaultKind) {
	switch k {
	case transport.FaultDropped:
		c.tele.faultLost.Inc()
	case transport.FaultPeerDead:
		c.tele.faultDead.Inc()
	case transport.FaultCancelled:
		c.tele.faultDeadline.Inc()
	}
}

// RecvTimeout is Recv with an explicit deadline of timeout virtual ns from
// the call. An injected fault resolves at its deterministic virtual time
// with ErrMessageLost or ErrPeerDead; a message that was never sent trips
// the real-time watchdog and fails with ErrDeadline, charged at the virtual
// deadline. See Recv for the NoEscape soundness argument.
func (c *Comm) RecvTimeout(buf any, count int, d *Datatype, source, tag int, timeout model.Time) (Status, error) {
	deadline := c.clock().Now() + timeout
	r, err := c.makeRecvReq(typemap.NoEscape(buf), count, d, source, tag, false)
	if err != nil {
		return Status{}, err
	}
	err = r.finishDeadline(deadline)
	if err != nil && !IsFault(err) {
		return Status{}, err
	}
	c.clock().AdvanceTo(r.readyV)
	return r.status, err
}

// WaitTimeout is Wait with an explicit deadline of timeout virtual ns from
// the call, with the same fault semantics as RecvTimeout.
func (c *Comm) WaitTimeout(r *Request, timeout model.Time) (Status, error) {
	return c.wait(r, c.clock().Now()+timeout)
}

// WaitallTimeout is WaitallIgnore with an explicit deadline of timeout
// virtual ns from the call. Unlike Waitall it keeps going past faulted
// requests, completing every one, and reports per-request outcomes: errs[i]
// is the fault (or nil) for reqs[i], and the single error is the first
// fault, nil when the batch was clean. errs is nil when every request
// succeeded. Hard usage errors (decode mismatch) abort immediately as in
// Waitall.
func (c *Comm) WaitallTimeout(reqs []*Request, timeout model.Time) ([]error, error) {
	return c.waitallImpl(reqs, nil, c.clock().Now()+timeout)
}
