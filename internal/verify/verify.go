// Package verify checks global invariants over a run's event trace — the
// automated-analysis counterpart of the paper's claim that intent-level
// communication enables whole-program reasoning. It validates causality
// (nothing is received before it was sent), completeness (every send is
// eventually received), conservation (bytes out equal bytes in) and
// per-rank virtual-clock monotonicity.
package verify

import (
	"fmt"
	"strings"

	"commintent/internal/simnet"
	"commintent/internal/trace"
)

// Violation is one failed invariant.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// Report is the outcome of a verification pass.
type Report struct {
	Events     int
	Sends      int
	Receives   int
	Puts       int
	Violations []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d events (%d sends, %d receives, %d puts): ", r.Events, r.Sends, r.Receives, r.Puts)
	if r.OK() {
		b.WriteString("all invariants hold")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violation(s)", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// Check runs every invariant over the events. n is the world size; pending
// reports whether in-flight traffic is allowed (true when verifying
// mid-run; false after a clean shutdown, making unmatched sends an error).
func Check(events []simnet.Event, n int, pending bool) *Report {
	r := &Report{Events: len(events)}
	add := func(inv, format string, args ...any) {
		r.Violations = append(r.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// Per-rank virtual-clock monotonicity over emitted events.
	// EvRecvComplete is excluded: its timestamp is the data-ready virtual
	// time of the transfer, which can legitimately precede operations the
	// rank issued between posting the receive and completing it (e.g. the
	// consolidated waitall finishing an early-arrived message last).
	lastV := map[int]int64{}
	for _, e := range events {
		if e.Kind == simnet.EvRecvComplete {
			continue
		}
		if v, ok := lastV[e.Rank]; ok && int64(e.V) < v {
			add("clock-monotonicity", "rank %d emitted %v at vtime %v after an event at %v", e.Rank, e.Kind, e.V, v)
		}
		lastV[e.Rank] = int64(e.V)
	}

	// Two-sided matching: per (src,dst,tag) stream, receives complete in
	// send order, never carry more bytes than their send (a posted buffer
	// may bound the delivered count below it), never complete before it in
	// virtual time, and never outnumber the sends.
	m := trace.Match(events)
	for _, e := range events {
		switch e.Kind {
		case simnet.EvSend:
			r.Sends++
		case simnet.EvRecvComplete:
			r.Receives++
		case simnet.EvPut:
			r.Puts++
		}
	}
	for _, p := range m.Pairs {
		s, rc := events[p.Send], events[p.Recv]
		if rc.Bytes > s.Bytes {
			add("conservation", "%d->%d tag %d: received %dB of a %dB send", s.Rank, s.Peer, s.Tag, rc.Bytes, s.Bytes)
		}
		if rc.V < s.V {
			add("causality", "%d->%d tag %d: receive completed at %v before the send at %v", s.Rank, s.Peer, s.Tag, rc.V, s.V)
		}
	}
	for _, i := range m.Unmatched {
		e := events[i]
		add("completeness", "%d->%d tag %d: receive completed at %v with no send left to match", e.Peer, e.Rank, e.Tag, e.V)
	}
	if !pending {
		for _, i := range m.Unreceived {
			e := events[i]
			add("completeness", "%d->%d tag %d: %dB send at %v left unreceived after shutdown", e.Rank, e.Peer, e.Tag, e.Bytes, e.V)
		}
	}

	// Rank sanity.
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= n {
			add("rank-range", "event %v from rank %d of world %d", e.Kind, e.Rank, n)
		}
		if e.Kind == simnet.EvSend && (e.Peer < 0 || e.Peer >= n) {
			add("rank-range", "send from %d to peer %d of world %d", e.Rank, e.Peer, n)
		}
	}
	return r
}
