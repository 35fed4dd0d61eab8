package transport

import (
	"errors"
	"fmt"
)

// Typed outcomes of an operation that did not deliver. They are defined at
// the seam, not in the transport that happens to inject them, so the layers
// above match one set of sentinels whatever fabric ran underneath.
var (
	// ErrDeadline reports that an operation's deadline passed with nothing
	// delivered (including a real-time watchdog cancellation of a wait whose
	// message was never sent).
	ErrDeadline = errors.New("transport: deadline exceeded before completion")
	// ErrPeerDead reports that the operation's peer rank is configured dead.
	ErrPeerDead = errors.New("transport: peer rank is dead")
	// ErrMessageLost reports that the fabric dropped the message.
	ErrMessageLost = errors.New("transport: message lost by the fabric")
)

// FaultKind classifies what an injector (or a watchdog cancellation) did to
// a message or a pending wait.
type FaultKind uint8

const (
	FaultNone      FaultKind = iota
	FaultDropped             // message dropped; delivered as a payload-free ghost
	FaultPeerDead            // source or destination rank is configured dead
	FaultCancelled           // pending wait cancelled by a real-time watchdog
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDropped:
		return "dropped"
	case FaultPeerDead:
		return "peer-dead"
	case FaultCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Err maps a fault kind to its sentinel error (nil for FaultNone).
func (k FaultKind) Err() error {
	switch k {
	case FaultDropped:
		return ErrMessageLost
	case FaultPeerDead:
		return ErrPeerDead
	case FaultCancelled:
		return ErrDeadline
	default:
		return nil
	}
}
