package core

import (
	"fmt"

	rt "commintent/internal/runtime"
)

// Clauses is the resolved clause set of one directive. Users construct it
// through Options; the merge of a region's comm_parameters assertions with
// a comm_p2p's own clauses follows the paper's rule that individual
// comm_p2p instances "do not need to re-express these communication
// clauses, but may provide additional assertions".
type Clauses struct {
	// sender: expression evaluating to the id (comm rank) of the process
	// that sends to the current process.
	sender intClause
	// receiver: expression evaluating to the id of the process that
	// receives the message sent by the current process.
	receiver intClause

	sbuf []any
	rbuf []any

	sendWhen boolClause
	recvWhen boolClause

	target    Target
	targetSet bool

	count intClause

	// comm_parameters-only clauses.
	placeSync      SyncPlacement
	placeSyncSet   bool
	maxCommIter    int
	maxCommIterSet bool
	label          string
	labelSet       bool
	managed        rt.Config
	managedSet     bool
}

// intClause is an integer clause expression: the constant v, or fn when the
// clause was given in its re-evaluated (*Fn) form. Keeping the constant as
// a value is what lets a bound directive know its peers and count without
// executing anything.
type intClause struct {
	fn  func() int
	v   int
	set bool
}

func (c intClause) eval() int {
	if c.fn != nil {
		return c.fn()
	}
	return c.v
}

// boolClause is the Boolean counterpart of intClause, for the when clauses.
type boolClause struct {
	fn  func() bool
	v   bool
	set bool
}

// holds reports whether the role the clause selects applies to this rank:
// an absent when clause selects every rank.
func (c boolClause) holds() bool {
	if c.fn != nil {
		return c.fn()
	}
	return !c.set || c.v
}

// Option asserts one clause.
type Option func(*Clauses)

// Sender asserts the id of the process that sends to the current process.
func Sender(id int) Option {
	return func(c *Clauses) { c.sender = intClause{v: id, set: true} }
}

// SenderFn is Sender with an expression re-evaluated at each comm_p2p
// execution (for clause expressions over loop variables).
func SenderFn(f func() int) Option {
	return func(c *Clauses) { c.sender = intClause{fn: f, set: true} }
}

// Receiver asserts the id of the process that receives from the current
// process.
func Receiver(id int) Option {
	return func(c *Clauses) { c.receiver = intClause{v: id, set: true} }
}

// ReceiverFn is Receiver with a re-evaluated expression.
func ReceiverFn(f func() int) Option {
	return func(c *Clauses) { c.receiver = intClause{fn: f, set: true} }
}

// SBuf lists the origin buffer(s) of the message. An empty list asserts
// nothing: a comm_p2p that names no buffers inherits its region's.
func SBuf(bufs ...any) Option {
	return func(c *Clauses) {
		if len(bufs) > 0 {
			c.sbuf = bufs
		}
	}
}

// RBuf lists the destination buffer(s) of the message; an empty list
// asserts nothing, as for SBuf.
func RBuf(bufs ...any) Option {
	return func(c *Clauses) {
		if len(bufs) > 0 {
			c.rbuf = bufs
		}
	}
}

// SendWhen asserts the Boolean expression selecting which processes send.
func SendWhen(b bool) Option {
	return func(c *Clauses) { c.sendWhen = boolClause{v: b, set: true} }
}

// SendWhenFn is SendWhen with a re-evaluated expression.
func SendWhenFn(f func() bool) Option {
	return func(c *Clauses) { c.sendWhen = boolClause{fn: f, set: true} }
}

// ReceiveWhen asserts the Boolean expression selecting which processes
// receive.
func ReceiveWhen(b bool) Option {
	return func(c *Clauses) { c.recvWhen = boolClause{v: b, set: true} }
}

// ReceiveWhenFn is ReceiveWhen with a re-evaluated expression.
func ReceiveWhenFn(f func() bool) Option {
	return func(c *Clauses) { c.recvWhen = boolClause{fn: f, set: true} }
}

// WithTarget asserts which library calls to generate.
func WithTarget(t Target) Option {
	return func(c *Clauses) { c.target = t; c.targetSet = true }
}

// Count asserts the number of elements of the sender's buffer(s) passed to
// the receiver's buffer(s).
func Count(n int) Option {
	return func(c *Clauses) { c.count = intClause{v: n, set: true} }
}

// CountFn is Count with a re-evaluated expression.
func CountFn(f func() int) Option {
	return func(c *Clauses) { c.count = intClause{fn: f, set: true} }
}

// PlaceSync asserts where completion synchronisation is placed. Only valid
// on comm_parameters.
func PlaceSync(p SyncPlacement) Option {
	return func(c *Clauses) { c.placeSync = p; c.placeSyncSet = true }
}

// MaxCommIter asserts the maximum number of times a comm_p2p instance may
// execute inside the region, to facilitate synchronisation generation for
// loops. Only valid on comm_parameters.
func MaxCommIter(n int) Option {
	return func(c *Clauses) { c.maxCommIter = n; c.maxCommIterSet = true }
}

// ManagedRuntime asserts the managed-runtime configuration for the region,
// overriding the process-wide setting (runtime.FromEnv / runtime.Override)
// in either direction: a region can opt in to online re-tuning, coalescing
// or automatic sync placement, or pin itself to the static lowering with a
// zero Config. Only valid on comm_parameters.
func ManagedRuntime(cfg rt.Config) Option {
	return func(c *Clauses) { c.managed = cfg; c.managedSet = true }
}

// Label names the comm_parameters region for observability: every fabric
// event, span and metric produced under the region is attributed to this
// label (flight-recorder dumps, per-region critical-path breakdowns, the
// mpi_wait_virtual_ns_by_region histogram). Labels should come from a small
// fixed set — each distinct label becomes a metric label value. Only valid
// on comm_parameters.
func Label(s string) Option {
	return func(c *Clauses) { c.label = s; c.labelSet = true }
}

// set rebuilds the clause set from opts in place.
func (c *Clauses) set(opts []Option) {
	*c = Clauses{}
	for _, o := range opts {
		o(c)
	}
}

// inherit makes c the clause set of a comm_p2p with the given options
// inside a region asserting the given clauses: the region's p2p clauses
// apply unless the directive re-asserts them, and the comm_parameters-only
// clauses do not carry over (so validateP2POnly sees only what the
// directive itself asserted).
func (c *Clauses) inherit(region *Clauses, opts []Option) {
	*c = *region
	c.placeSyncSet, c.maxCommIterSet, c.labelSet, c.managedSet = false, false, false, false
	for _, o := range opts {
		o(c)
	}
}

// constant reports whether no clause expression of c is a *Fn form: what
// the expressions evaluate to is then the same at every execution.
func (c *Clauses) constant() bool {
	return c.sender.fn == nil && c.receiver.fn == nil && c.count.fn == nil &&
		c.sendWhen.fn == nil && c.recvWhen.fn == nil
}

// validateP2P checks a fully merged comm_p2p clause set.
func validateP2P(c *Clauses) error {
	if !c.sender.set {
		return fmt.Errorf("%w: sender", ErrMissingClause)
	}
	if !c.receiver.set {
		return fmt.Errorf("%w: receiver", ErrMissingClause)
	}
	if len(c.sbuf) == 0 {
		return fmt.Errorf("%w: sbuf", ErrMissingClause)
	}
	if len(c.rbuf) == 0 {
		return fmt.Errorf("%w: rbuf", ErrMissingClause)
	}
	if len(c.sbuf) != len(c.rbuf) {
		return fmt.Errorf("%w: %d vs %d", ErrBufferMismatch, len(c.sbuf), len(c.rbuf))
	}
	if c.sendWhen.set != c.recvWhen.set {
		return ErrWhenPairing
	}
	return nil
}

// validateP2POnly rejects comm_parameters-only clauses on a comm_p2p.
func validateP2POnly(c *Clauses) error {
	if c.placeSyncSet {
		return fmt.Errorf("%w: place_sync", ErrParamsOnlyClause)
	}
	if c.maxCommIterSet {
		return fmt.Errorf("%w: max_comm_iter", ErrParamsOnlyClause)
	}
	if c.labelSet {
		return fmt.Errorf("%w: label", ErrParamsOnlyClause)
	}
	if c.managedSet {
		return fmt.Errorf("%w: managed_runtime", ErrParamsOnlyClause)
	}
	return nil
}
