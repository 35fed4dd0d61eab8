package simnet

// The event recorder and post-mortem forensics. A Recorder subscribes to the
// fabric's observer stream and keeps every rank's events, and the spans a
// telemetry tracer ends, in one per-rank ring with a capacity policy:
// bounded, it is the flight recorder — the last capacity records of every
// rank, cheap enough to leave on for chaos runs and exactly what a human
// needs when a world dies; unbounded, it keeps the whole run for the
// post-run analyses (statistics, the communication matrix, the invariant
// checker, the critical path).
//
// When a fault becomes terminal (a real-time watchdog cancels a wait, or the
// directive layer's retry protocol gives up), the failing layer calls
// Fabric.ReportFailure with the op it was executing. The fabric assembles a
// Postmortem: the recorder's tail for every involved rank plus the unmatched
// send/recv frontier reconstructed live from the endpoints' matching
// structures. Dumps are bounded; commstat -postmortem renders them.

import (
	"fmt"
	"slices"
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

// Recorder buffers the fabric event stream per rank, and a span tracer's
// finished spans with it. Every event is emitted, and every span ended, by
// the goroutine of the rank it names, so each rank's ring is written by one
// goroutine in that rank's program order, and recording never contends
// across ranks.
type Recorder struct {
	rings []recRing
	// capacity bounds each ring to its last capacity records; 0 keeps every
	// record. Changed only before rank goroutines start.
	capacity int
	flight   bool // EnableRecorder has chosen the bound
}

type recRing struct {
	mu      sync.Mutex
	buf     []record   // grows as it fills; once full, buf[next] is the oldest
	next    int        // 0 until the ring is full
	total   int64      // fabric events ever recorded for this rank
	lastV   model.Time // largest virtual timestamp of this rank's fabric events
	dropped int64      // spans overwritten after the ring filled
	// Pad past a cache line: adjacent rings are written by different rank
	// goroutines.
	_ [64]byte
}

// record is one slot of a rank's ring: a fabric event, or a finished span
// when Kind is spanKind. Only the half the Kind names is current.
type record struct {
	Event
	span Span
}

const spanKind EventKind = -1 // never an observed event's kind

// Span is one finished, virtually-timed interval on a rank: a directive
// execution, a lowering phase, or a fabric operation. Parent is the ID of the
// span that was open on the same rank when this one began (0 = root).
type Span struct {
	Rank   int
	Name   string
	Cat    string
	Start  model.Time
	End    model.Time
	ID     int64
	Parent int64

	// Region is the interned directive-region ID active when the span began
	// (see Fabric.InternRegion); 0 = unattributed.
	Region int
}

// Dur reports the span's virtual duration.
func (s Span) Dur() model.Time { return s.End - s.Start }

// NewRecorder makes a recorder for n ranks that no fabric feeds, for a span
// tracer without a fabric. Capacity is as for EnableRecorder.
func NewRecorder(n, capacity int) *Recorder {
	return &Recorder{rings: make([]recRing, n), capacity: max(capacity, 0)}
}

// EnableRecorder installs a recorder and subscribes it to the event stream.
// A positive capacity bounds each rank's ring to its last capacity records
// (the flight recorder); capacity <= 0 keeps every record. A ring grows as it
// fills, so a large bound costs only what is recorded. Like SetFaults it must
// be called before rank goroutines start. Calling it again returns the
// existing recorder, widened to unbounded if capacity <= 0 asks for that; a
// recorder a span tracer installed (SpanRecorder) grows to the larger
// capacity instead. A recorder is never narrowed.
func (f *Fabric) EnableRecorder(capacity int) *Recorder {
	if r := f.rec; r != nil && r.flight && capacity > 0 {
		return r
	}
	r := f.SpanRecorder(capacity)
	r.flight = true
	return r
}

// SpanRecorder returns the recorder a span tracer bound to this fabric writes
// into: the installed one grown to capacity (the larger bound wins, and
// unbounded is the largest), or a new one. Call it before ranks start.
func (f *Fabric) SpanRecorder(capacity int) *Recorder {
	if r := f.rec; r != nil {
		r.grow(capacity)
		return r
	}
	f.rec = NewRecorder(f.n, capacity)
	f.Observe(f.rec.record)
	return f.rec
}

// grow raises a bounded recorder's capacity to capacity (unbounded when
// capacity <= 0), keeping what each ring holds in order.
func (r *Recorder) grow(capacity int) {
	if r.capacity == 0 || (capacity > 0 && capacity <= r.capacity) {
		return
	}
	for i := range r.rings {
		rg := &r.rings[i]
		rg.mu.Lock()
		rg.buf = append(rg.buf[rg.next:len(rg.buf):len(rg.buf)], rg.buf[:rg.next]...)
		rg.next = 0
		rg.mu.Unlock()
	}
	r.capacity = max(capacity, 0)
}

// Recorder returns the installed recorder, or nil.
func (f *Fabric) Recorder() *Recorder { return f.rec }

func (r *Recorder) record(e Event) {
	rg := r.ring(e.Rank)
	if rg == nil {
		return
	}
	rg.mu.Lock()
	rg.slot(r.capacity).Event = e
	rg.total++
	if e.V > rg.lastV {
		rg.lastV = e.V
	}
	rg.mu.Unlock()
}

// RecordSpan writes a finished span into its rank's ring; s is not
// retained. Nil receivers and out-of-range ranks record nothing.
func (r *Recorder) RecordSpan(s *Span) {
	rg := r.ring(s.Rank)
	if rg == nil {
		return
	}
	rg.mu.Lock()
	x := rg.slot(r.capacity)
	x.Kind, x.span = spanKind, *s
	rg.mu.Unlock()
}

// slot returns the slot the next record goes in: a new one while the ring
// grows, else the oldest, whose span (if any) is dropped. The caller holds
// rg.mu.
func (rg *recRing) slot(capacity int) *record {
	if n := len(rg.buf); capacity == 0 || n < capacity {
		if n == cap(rg.buf) {
			more := max(n, 8)
			if capacity > 0 {
				more = min(more, capacity-n)
			}
			rg.buf = slices.Grow(rg.buf, more)
		}
		rg.buf = rg.buf[:n+1]
		return &rg.buf[n]
	}
	x := &rg.buf[rg.next]
	if x.Kind == spanKind {
		rg.dropped++
	}
	if rg.next++; rg.next == len(rg.buf) {
		rg.next = 0
	}
	return x
}

// ring returns rank's ring; nil for a nil receiver or an out-of-range rank.
func (r *Recorder) ring(rank int) *recRing {
	if r == nil || rank < 0 || rank >= len(r.rings) {
		return nil
	}
	return &r.rings[rank]
}

// tail copies out the last limit spans (spans set) or fabric events that
// rank's ring holds, oldest first; all of them when limit <= 0. It returns
// nil for a nil receiver or an out-of-range rank.
func tail[T any](r *Recorder, rank, limit int, spans bool, get func(*record) T) []T {
	rg := r.ring(rank)
	if rg == nil {
		return nil
	}
	out := []T{}
	rg.mu.Lock()
	for i := len(rg.buf) - 1; i >= 0 && (limit <= 0 || len(out) < limit); i-- {
		if x := &rg.buf[(rg.next+i)%len(rg.buf)]; (x.Kind == spanKind) == spans {
			out = append(out, get(x))
		}
	}
	rg.mu.Unlock()
	slices.Reverse(out)
	return out
}

func eventOf(x *record) Event { return x.Event }
func spanOf(x *record) Span   { return x.span }

// count reads one of rank's counters under the ring's lock; 0 without a ring.
func count[T any](r *Recorder, rank int, get func(*recRing) T) (v T) {
	if rg := r.ring(rank); rg != nil {
		rg.mu.Lock()
		v = get(rg)
		rg.mu.Unlock()
	}
	return v
}

// Cap reports the per-rank ring capacity; 0 when the recorder is unbounded.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.capacity
}

// RankEvents returns rank's recorded fabric events, oldest first. Nil
// receiver and out-of-range ranks return nil.
func (r *Recorder) RankEvents(rank int) []Event { return tail(r, rank, 0, false, eventOf) }

// RankSpans returns rank's retained spans in the order they ended, oldest
// first. Nil receiver and out-of-range ranks return nil.
func (r *Recorder) RankSpans(rank int) []Span { return tail(r, rank, 0, true, spanOf) }

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
	return count(r, rank, func(rg *recRing) int64 { return rg.total })
}

// LastV reports the largest virtual timestamp observed for rank — a safe
// cross-goroutine proxy for the rank's (goroutine-private) virtual clock,
// which the live /ranks endpoint uses to estimate clock skew.
func (r *Recorder) LastV(rank int) model.Time {
	return count(r, rank, func(rg *recRing) model.Time { return rg.lastV })
}

// SpansDropped reports how many spans rank's ring has overwritten after it
// filled. Overwritten fabric events are not counted: Total tells them.
func (r *Recorder) SpansDropped(rank int) int64 {
	return count(r, rank, func(rg *recRing) int64 { return rg.dropped })
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
// plus the unmatched frontier at dump time. Spans holds the rank's last
// finished spans, in the order they ended, when a tracer writes into the
// recorder: what the directive lowered to just before the failure.
type RankDump struct {
	Rank       int                  `json:"rank"`
	LastV      model.Time           `json:"last_v"`
	Recorded   int64                `json:"events_recorded"`
	Events     []Event              `json:"events"`
	Spans      []Span               `json:"spans,omitempty"`
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
			Events:     tail(f.rec, rk, DefaultRecorderCap, false, eventOf),
			Spans:      tail(f.rec, rk, DefaultRecorderCap, true, spanOf),
			Posted:     ep.PostedFrontier(),
			Unexpected: ep.UnexpectedFrontier(),
		}
		for _, e := range d.Events {
			needLabel(e.Region)
		}
		for _, s := range d.Spans {
			needLabel(s.Region)
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
		if len(d.Spans) > 0 {
			fmt.Fprintf(&b, "    last %d span(s), in the order they ended:\n", len(d.Spans))
			for _, s := range d.Spans {
				region := ""
				if s.Region != 0 {
					region = " region=" + lbl(s.Region)
				}
				fmt.Fprintf(&b, "       %12v %-20s %-9s dur=%v%s\n", s.End, s.Name, s.Cat, s.Dur(), region)
			}
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
