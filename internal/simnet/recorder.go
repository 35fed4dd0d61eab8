package simnet

// The event recorder and post-mortem forensics. A Recorder subscribes to the
// fabric's observer stream and keeps every rank's events in a per-rank ring
// with a capacity policy: bounded, it is the flight recorder — the last
// capacity events of every rank, cheap enough to leave on for chaos runs and
// exactly what a human needs when a world dies; unbounded, it keeps the whole
// run for the post-run analyses (statistics, the communication matrix, the
// invariant checker, the critical path).
//
// When a fault becomes terminal (a real-time watchdog cancels a wait, or the
// directive layer's retry protocol gives up), the failing layer calls
// Fabric.ReportFailure with the op it was executing. The fabric assembles a
// Postmortem: the recorder's tail for every involved rank plus the unmatched
// send/recv frontier reconstructed live from the endpoints' matching
// structures. Dumps are bounded; commstat -postmortem renders them.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// DefaultRecorderCap is the flight recorder's customary per-rank capacity,
// and the most tail events per rank a post-mortem dump carries whatever the
// recorder keeps.
const DefaultRecorderCap = 256

// maxPostmortems bounds how many dumps a fabric retains; a fault storm after
// the first few terminal failures adds no forensic value.
const maxPostmortems = 16

// Recorder buffers the fabric event stream per rank. Every event is emitted
// by the goroutine of the rank it names (Event.Rank), so each rank's ring is
// written by one goroutine in that rank's program order, and recording never
// contends across ranks.
type Recorder struct {
	rings []recRing
	// unbounded keeps every event instead of the last len(buf) per rank.
	// Set only before rank goroutines start (EnableRecorder).
	unbounded bool
}

type recRing struct {
	mu      sync.Mutex
	buf     []Event
	next    int // bounded: the slot the next event overwrites; unbounded: len(buf)
	wrapped bool
	total   int64      // events ever recorded for this rank
	lastV   model.Time // largest virtual timestamp observed for this rank
	// Pad past a cache line: adjacent rings are written by different rank
	// goroutines.
	_ [64]byte
}

// EnableRecorder installs a recorder and subscribes it to the event stream.
// A positive capacity bounds each rank's ring to its last capacity events
// (the flight recorder); capacity <= 0 keeps every event. Like SetFaults it
// must be called before rank goroutines start. Calling it again returns the
// existing recorder, widened to unbounded if capacity <= 0 asks for that; a
// recorder is never narrowed.
func (f *Fabric) EnableRecorder(capacity int) *Recorder {
	if r := f.rec; r != nil {
		if capacity <= 0 && !r.unbounded {
			r.widen()
		}
		return r
	}
	r := &Recorder{rings: make([]recRing, f.n), unbounded: capacity <= 0}
	if !r.unbounded {
		for i := range r.rings {
			r.rings[i].buf = make([]Event, capacity)
		}
	}
	f.rec = r
	f.Observe(r.record)
	return r
}

// widen turns a bounded recorder unbounded, keeping what each ring holds.
func (r *Recorder) widen() {
	for i := range r.rings {
		rg := &r.rings[i]
		rg.mu.Lock()
		rg.buf = rg.tail(0)
		rg.next, rg.wrapped = len(rg.buf), false
		rg.mu.Unlock()
	}
	r.unbounded = true
}

// Recorder returns the installed recorder, or nil.
func (f *Fabric) Recorder() *Recorder { return f.rec }

func (r *Recorder) record(e Event) {
	if e.Rank < 0 || e.Rank >= len(r.rings) {
		return
	}
	rg := &r.rings[e.Rank]
	rg.mu.Lock()
	if r.unbounded {
		rg.buf = append(rg.buf, e)
		rg.next = len(rg.buf)
	} else {
		rg.buf[rg.next] = e
		rg.next++
		if rg.next == len(rg.buf) {
			rg.next = 0
			rg.wrapped = true
		}
	}
	rg.total++
	if e.V > rg.lastV {
		rg.lastV = e.V
	}
	rg.mu.Unlock()
}

// tail copies out the ring's last limit events (all of them when limit <= 0),
// oldest first. The caller holds rg.mu.
func (rg *recRing) tail(limit int) []Event {
	older, newer := []Event(nil), rg.buf[:rg.next]
	if rg.wrapped {
		older = rg.buf[rg.next:]
	}
	held := len(older) + len(newer)
	if limit <= 0 || limit > held {
		limit = held
	}
	if skip := held - limit; skip >= len(older) {
		older, newer = nil, newer[skip-len(older):]
	} else {
		older = older[skip:]
	}
	return append(append(make([]Event, 0, limit), older...), newer...)
}

// Cap reports the per-rank ring capacity; 0 when the recorder is unbounded.
func (r *Recorder) Cap() int {
	if r == nil || r.unbounded || len(r.rings) == 0 {
		return 0
	}
	return len(r.rings[0].buf)
}

// RankEvents returns rank's recorded events, oldest first. Nil receiver and
// out-of-range ranks return nil.
func (r *Recorder) RankEvents(rank int) []Event { return r.rankTail(rank, 0) }

func (r *Recorder) rankTail(rank, limit int) []Event {
	if r == nil || rank < 0 || rank >= len(r.rings) {
		return nil
	}
	rg := &r.rings[rank]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.tail(limit)
}

// Events returns every recorded event rank by rank: rank 0's in the order
// rank 0 emitted them, then rank 1's, and so on. Each rank's events are in
// its program order, so the result does not depend on how the rank
// goroutines interleaved. A nil receiver returns nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for rank := range r.rings {
		out = append(out, r.RankEvents(rank)...)
	}
	return out
}

// Total reports how many events have ever been recorded for rank (including
// those the ring has since overwritten).
func (r *Recorder) Total(rank int) int64 {
	if r == nil || rank < 0 || rank >= len(r.rings) {
		return 0
	}
	rg := &r.rings[rank]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.total
}

// LastV reports the largest virtual timestamp observed for rank — a safe
// cross-goroutine proxy for the rank's (goroutine-private) virtual clock,
// which the live /ranks endpoint uses to estimate clock skew.
func (r *Recorder) LastV(rank int) model.Time {
	if r == nil || rank < 0 || rank >= len(r.rings) {
		return 0
	}
	rg := &r.rings[rank]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.lastV
}

// RecvSummary describes one posted-but-unmatched receive in a frontier dump.
type RecvSummary struct {
	Src   int        `json:"src"` // AnySource (-1) for wildcard receives
	Tag   int        `json:"tag"` // AnyTag (-1) for wildcard receives
	PostV model.Time `json:"post_v"`
}

// FailingOp identifies the operation whose failure triggered a post-mortem.
type FailingOp struct {
	Rank   int                 `json:"rank"`
	Op     string              `json:"op"`   // e.g. "MPI_Wait(recv)", "comm_p2p send"
	Peer   int                 `json:"peer"` // -1 when unknown
	Tag    int                 `json:"tag"`  // -1 when unknown
	Region int                 `json:"region"`
	Kind   transport.FaultKind `json:"fault_kind"`
	Reason string              `json:"reason"`
	V      model.Time          `json:"v"` // failing rank's virtual time at the failure
}

// RankDump is one rank's slice of a post-mortem: the flight-recorder tail
// plus the unmatched frontier at dump time.
type RankDump struct {
	Rank       int                  `json:"rank"`
	LastV      model.Time           `json:"last_v"`
	Recorded   int64                `json:"events_recorded"`
	Events     []Event              `json:"events"`
	Posted     []RecvSummary        `json:"posted_frontier"`     // receives with no matching send
	Unexpected []transport.Envelope `json:"unexpected_frontier"` // arrived sends with no matching receive
}

// Postmortem is a terminal-failure dump: the failing op and the forensic
// state of every involved rank.
type Postmortem struct {
	Reason string         `json:"reason"`
	Fail   FailingOp      `json:"failing_op"`
	Ranks  []RankDump     `json:"ranks"`
	Labels map[int]string `json:"region_labels"` // region ID -> label, for IDs appearing above
}

// ReportFailure assembles and retains a post-mortem for a terminal failure.
// It is called by the mpi watchdog and the directive layer's retry give-up
// paths — not on every per-attempt FaultError, which would bury the terminal
// dump in noise. The involved ranks are the failing rank and its peer. The
// returned dump is also retained on the fabric (up to maxPostmortems) for
// Postmortems and the /postmortem endpoint.
func (f *Fabric) ReportFailure(fail FailingOp) *Postmortem {
	pm := &Postmortem{
		Reason: fail.Reason,
		Fail:   fail,
		Labels: map[int]string{},
	}
	involved := []int{}
	for _, rk := range []int{fail.Rank, fail.Peer} {
		if rk < 0 || rk >= f.n {
			continue
		}
		dup := false
		for _, have := range involved {
			if have == rk {
				dup = true
			}
		}
		if !dup {
			involved = append(involved, rk)
		}
	}
	needLabel := func(id int) {
		if id != 0 {
			pm.Labels[id] = f.RegionLabel(id)
		}
	}
	needLabel(fail.Region)
	for _, rk := range involved {
		ep := f.eps[rk]
		d := RankDump{
			Rank:       rk,
			LastV:      f.rec.LastV(rk),
			Recorded:   f.rec.Total(rk),
			Events:     f.rec.rankTail(rk, DefaultRecorderCap),
			Posted:     ep.PostedFrontier(),
			Unexpected: ep.UnexpectedFrontier(),
		}
		for _, e := range d.Events {
			needLabel(e.Region)
		}
		pm.Ranks = append(pm.Ranks, d)
	}
	f.pmMu.Lock()
	if len(f.pms) < maxPostmortems {
		f.pms = append(f.pms, pm)
	}
	f.pmMu.Unlock()
	return pm
}

// Postmortems returns the dumps retained so far, in report order.
func (f *Fabric) Postmortems() []*Postmortem {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	out := make([]*Postmortem, len(f.pms))
	copy(out, f.pms)
	return out
}

// String renders the dump for a terminal: the failing op, then each involved
// rank's frontier and recorded tail with the failure-adjacent events.
func (pm *Postmortem) String() string {
	var b strings.Builder
	lbl := func(id int) string {
		if s := pm.Labels[id]; s != "" {
			return s
		}
		if id == 0 {
			return "(unattributed)"
		}
		return fmt.Sprintf("region#%d", id)
	}
	fmt.Fprintf(&b, "POST-MORTEM: %s\n", pm.Reason)
	fmt.Fprintf(&b, "  failing op: rank %d %s peer=%d tag=%d fault=%s region=%s at vtime %v\n",
		pm.Fail.Rank, pm.Fail.Op, pm.Fail.Peer, pm.Fail.Tag, pm.Fail.Kind, lbl(pm.Fail.Region), pm.Fail.V)
	for _, d := range pm.Ranks {
		fmt.Fprintf(&b, "  rank %d: last vtime %v, %d event(s) recorded\n", d.Rank, d.LastV, d.Recorded)
		if len(d.Posted) > 0 {
			b.WriteString("    unmatched posted receives (no send arrived):\n")
			for _, p := range d.Posted {
				src := "any"
				if p.Src != transport.AnySource {
					src = fmt.Sprint(p.Src)
				}
				tag := "any"
				if p.Tag != transport.AnyTag {
					tag = fmt.Sprint(p.Tag)
				}
				fmt.Fprintf(&b, "      recv src=%s tag=%s posted at %v\n", src, tag, p.PostV)
			}
		}
		if len(d.Unexpected) > 0 {
			b.WriteString("    unmatched arrived sends (no receive posted):\n")
			for _, u := range d.Unexpected {
				fmt.Fprintf(&b, "      msg from %d tag=%d bytes=%d arrived at %v\n", u.Src, u.Tag, u.Bytes, u.ArriveV)
			}
		}
		if len(d.Posted) == 0 && len(d.Unexpected) == 0 {
			b.WriteString("    frontier empty (all traffic matched or cancelled)\n")
		}
		if len(d.Events) == 0 {
			b.WriteString("    no events recorded (recorder disabled or rank silent)\n")
			continue
		}
		fmt.Fprintf(&b, "    last %d event(s):\n", len(d.Events))
		for _, e := range d.Events {
			mark := "  "
			if d.Rank == pm.Fail.Rank && e.Kind == EvFault && e.Peer == pm.Fail.Peer {
				mark = ">>"
			}
			extra := ""
			if e.Fault != FaultNone {
				extra = " fault=" + e.Fault.String()
			}
			if e.Region != 0 {
				extra += " region=" + lbl(e.Region)
			}
			fmt.Fprintf(&b, "    %s %12v %-14s peer=%-3d tag=%-7d bytes=%d%s\n",
				mark, e.V, e.Kind, e.Peer, e.Tag, e.Bytes, extra)
		}
	}
	return b.String()
}

// PostedFrontier snapshots this endpoint's posted-but-unmatched receives,
// ordered by posting time. Safe to call from any goroutine.
func (ep *Endpoint) PostedFrontier() []RecvSummary {
	var out []RecvSummary
	ep.mu.Lock()
	ep.tab.EachPosted(func(src, tag int, postV model.Time) {
		out = append(out, RecvSummary{Src: src, Tag: tag, PostV: postV})
	})
	ep.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].PostV != out[j].PostV {
			return out[i].PostV < out[j].PostV
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// UnexpectedFrontier snapshots this endpoint's queued unexpected messages
// (arrived sends no receive has matched), in arrival order. Envelopes are
// copied out under the lock, as with Probe. Safe to call from any goroutine.
func (ep *Endpoint) UnexpectedFrontier() []transport.Envelope {
	var out []transport.Envelope
	ep.mu.Lock()
	ep.tab.EachUnexpected(func(env transport.Envelope) { out = append(out, env) })
	ep.mu.Unlock()
	return out
}
