// Package transport is the two-sided data plane behind the MPI-like
// substrate: the seam the same directive programs are lowered through onto
// different interconnects — the deterministic virtual-time simnet fabric, or
// the truly parallel in-process shared-memory transport (internal/shmtransport).
//
// It is a leaf: it defines the Port interface, every type that crosses it
// (the Recv and Msg handles, Envelope, FaultKind and its sentinel errors, the
// AnySource/AnyTag wildcards, the pooled wire buffers) and the one
// receiver-side match Table, and imports neither implementation. A transport
// is a feeder — how an arrived message reaches its destination's Table under
// mutual exclusion — plus a progress step and its wakes: every wait blocks on
// the port's one Gate, which yields to the rank's run loop (wait.go).
// Everything about *what matches what* and *how a rank waits* is here, once.
//
// The interface is cut exactly at the matching layer — post a send, post a
// receive, probe, cancel — with timestamps flowing through as opaque
// model.Time values. On simnet those are cost-model arrival times; on a
// wall-clock transport they are real monotonic readings from the same Clock
// seam (see model.Clock.SetWall), so the completion, deadline and telemetry
// machinery above does not fork on "what is time".
//
// What deliberately stays outside the interface:
//
//   - the barrier: *simnet.Barrier is pure rank synchronisation (its waits
//     block on Gates too) plus a max-fold of clocks, which is equally
//     meaningful for wall readings, so both transports share the concrete
//     implementation;
//   - RMA window and SHMEM one-sided ops: in-process they are direct memory
//     copies plus clock charges on the caller, with no per-transport
//     mechanics to abstract;
//   - the fault injector, which today sits in front of simnet's feeder only
//     (FaultKind lives here so that a Port decorator can carry it to every
//     transport), and canonical-cost replay, which is simnet-only by design.
package transport

import (
	"fmt"
	"os"

	"commintent/internal/model"
)

// Kind names a two-sided transport implementation.
type Kind int

const (
	// Simnet is the single-address-space virtual-time fabric: deterministic,
	// bit-identical goldens, ranks cooperatively scheduled.
	Simnet Kind = iota
	// SharedMem is the in-process parallel transport: ranks run across Ps,
	// completion is real sync/atomic, time is the wall clock.
	SharedMem
)

func (k Kind) String() string {
	switch k {
	case Simnet:
		return "simnet"
	case SharedMem:
		return "shm"
	default:
		return fmt.Sprintf("transport(%d)", int(k))
	}
}

// EnvVar overrides the profile's transport field when set ("simnet" or
// "shm").
const EnvVar = "COMMINTENT_TRANSPORT"

// Parse maps a transport name to its Kind; the empty string is Simnet.
func Parse(name string) (Kind, error) {
	switch name {
	case "", "simnet":
		return Simnet, nil
	case "shm":
		return SharedMem, nil
	default:
		return Simnet, fmt.Errorf("transport: unknown transport %q (want simnet or shm)", name)
	}
}

// Select resolves the transport for a run: the COMMINTENT_TRANSPORT
// environment variable when set, else the profile's transport field, else
// simnet.
func Select(profileTransport string) (Kind, error) {
	if env := os.Getenv(EnvVar); env != "" {
		return Parse(env)
	}
	return Parse(profileTransport)
}

// Wildcards for two-sided matching, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// RecvHandle is the name the layer ladder (benchmark/) spells a posted
// receive by; product code says *Recv.
type RecvHandle = *Recv

// SendResult reports a posted send. Msg is nil for eager sends (the
// transport owns and may already have recycled the message); rendezvous
// sends carry the handle so the sender can await the match. Fault is the
// injector's send-time verdict — the sender learns a drop synchronously, the
// deterministic stand-in for an acknowledgement timeout, while the receiver
// learns it from the delivered ghost; FaultNone where nothing injects.
type SendResult struct {
	Msg    *Msg
	LocalV model.Time
	Fault  FaultKind
}

// Port is one rank's attachment to a two-sided transport. All methods must
// be called from the owning rank's goroutine; the transport internally
// synchronises against remote senders.
type Port interface {
	// Rank reports the world rank this port belongs to.
	Rank() int

	// Send posts a message whose payload buffer's ownership transfers to
	// the transport (callers obtain it from Headers().GetBuf or GetBuf); it
	// goes back to this port once the matching receive has copied it out.
	// arriveV is the timestamp at which the payload is observable at the
	// destination.
	Send(dst, tag int, data []byte, arriveV model.Time, rendezvous bool) SendResult

	// PostRecv posts a receive for (src|AnySource, tag|AnyTag); the payload
	// is copied into buf, truncated to len(buf).
	PostRecv(src, tag int, buf []byte, postV model.Time) *Recv

	// Probe reports whether a matching unexpected message is queued,
	// without receiving it.
	Probe(src, tag int) (Envelope, bool)

	// CancelRecv withdraws a posted-but-unmatched receive, reporting
	// whether the cancellation won; on false the owner must consume the
	// normal completion.
	CancelRecv(r *Recv) bool

	// CancelMsg withdraws this rank's own rendezvous message from dst's
	// unexpected queue, reporting whether the withdrawal won; on false a
	// receive claimed it and the sender completes the handshake normally.
	CancelMsg(dst int, m *Msg) bool

	// Headers returns the port's recycled store: its message headers,
	// receive handles and wire buffers, and its gate.
	Headers() *Headers

	// Queue introspection for telemetry and leak checks. A withdrawn
	// message is not pending once the destination's owner has made
	// progress, and never raises the high-watermark after its withdrawal.
	PendingUnexpected() int
	PendingPosted() int
	UnexpectedHighWatermark() int
}
