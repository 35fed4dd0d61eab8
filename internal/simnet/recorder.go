package simnet

// The flight recorder and post-mortem forensics. A Recorder subscribes to
// the fabric's observer stream and keeps the last capacity events of every
// rank in a fixed-size ring — cheap enough to leave on for chaos runs, and
// exactly what a human needs when a world dies: what was each involved rank
// doing in its final virtual microseconds?
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

// DefaultRecorderCap is the per-rank ring capacity EnableRecorder uses when
// given a non-positive capacity.
const DefaultRecorderCap = 256

// maxPostmortems bounds how many dumps a fabric retains; a fault storm after
// the first few terminal failures adds no forensic value.
const maxPostmortems = 16

// Recorder is a per-rank ring buffer over the fabric event stream. Each rank
// writes (via the sender- or owner-goroutine emitting the event) into its own
// mutex-guarded ring, so recording never contends across ranks.
type Recorder struct {
	rings []recRing
}

type recRing struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	total   int64      // events ever recorded for this rank
	lastV   model.Time // largest virtual timestamp observed for this rank
	// Pad past a cache line: adjacent rings are written by different rank
	// goroutines.
	_ [64]byte
}

// EnableRecorder installs a flight recorder with the given per-rank ring
// capacity (DefaultRecorderCap when cap <= 0) and subscribes it to the event
// stream. Like SetFaults it must be called before rank goroutines start;
// calling it again returns the existing recorder unchanged.
func (f *Fabric) EnableRecorder(capacity int) *Recorder {
	if f.rec != nil {
		return f.rec
	}
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	r := &Recorder{rings: make([]recRing, f.n)}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, capacity)
	}
	f.rec = r
	f.Observe(r.record)
	return r
}

// Recorder returns the installed flight recorder, or nil.
func (f *Fabric) Recorder() *Recorder { return f.rec }

func (r *Recorder) record(e Event) {
	if e.Rank < 0 || e.Rank >= len(r.rings) {
		return
	}
	rg := &r.rings[e.Rank]
	rg.mu.Lock()
	rg.buf[rg.next] = e
	rg.next++
	if rg.next == len(rg.buf) {
		rg.next = 0
		rg.wrapped = true
	}
	rg.total++
	if e.V > rg.lastV {
		rg.lastV = e.V
	}
	rg.mu.Unlock()
}

// Cap reports the per-rank ring capacity.
func (r *Recorder) Cap() int {
	if r == nil || len(r.rings) == 0 {
		return 0
	}
	return len(r.rings[0].buf)
}

// RankEvents returns rank's recorded tail, oldest first. Nil receiver and
// out-of-range ranks return nil.
func (r *Recorder) RankEvents(rank int) []Event {
	if r == nil || rank < 0 || rank >= len(r.rings) {
		return nil
	}
	rg := &r.rings[rank]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if !rg.wrapped {
		out := make([]Event, rg.next)
		copy(out, rg.buf[:rg.next])
		return out
	}
	out := make([]Event, 0, len(rg.buf))
	out = append(out, rg.buf[rg.next:]...)
	out = append(out, rg.buf[:rg.next]...)
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
			Events:     f.rec.RankEvents(rk),
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
