package telemetry

import (
	"commintent/internal/model"
	"commintent/internal/simnet"
)

// DefaultSpanCap is the per-rank ring-buffer capacity used when the caller
// does not configure one.
const DefaultSpanCap = 4096

// Span is one completed, virtually-timed interval on a rank, as the tracer
// reads it back from the recorder's ring (see simnet.Span).
type Span = simnet.Span

// Tracer writes spans into a simnet recorder's per-rank ring and reads them
// back. Bound to a fabric (Telemetry.BindFabric) it writes into the fabric's
// recorder, beside the fabric events; standalone it writes into a recorder of
// its own. A nil *Tracer hands out no-op span handles.
type Tracer struct {
	cap   int
	rec   *simnet.Recorder
	ranks []openSpans
}

// openSpans is one rank's span id counter and open-span stack. Only the
// rank's own goroutine begins and ends its spans, so it takes no lock.
type openSpans struct {
	nextID int64
	stack  []int64 // open span IDs, innermost last
	// Pad to a cache line: adjacent ranks are written by different rank
	// goroutines.
	_ [32]byte
}

// NewTracer creates a tracer for n ranks with the given per-rank span
// capacity (DefaultSpanCap if perRankCap <= 0).
func NewTracer(n, perRankCap int) *Tracer {
	if perRankCap <= 0 {
		perRankCap = DefaultSpanCap
	}
	return &Tracer{cap: perRankCap, rec: simnet.NewRecorder(n, perRankCap), ranks: make([]openSpans, n)}
}

// SpanHandle is an open span. It is a value type so that beginning a span
// on a disabled (nil) tracer allocates nothing.
type SpanHandle struct {
	t *Tracer
	s Span // End not yet set
}

// Begin opens a span on rank at virtual time start. The parent is the
// innermost span currently open on the same rank. On a nil tracer (or an
// out-of-range rank) the returned handle no-ops.
func (t *Tracer) Begin(rank int, name, cat string, start model.Time) SpanHandle {
	return t.BeginRegion(rank, name, cat, start, 0)
}

// BeginRegion is Begin with an explicit directive-region attribution.
func (t *Tracer) BeginRegion(rank int, name, cat string, start model.Time, region int) SpanHandle {
	if t == nil || rank < 0 || rank >= len(t.ranks) {
		return SpanHandle{}
	}
	rs := &t.ranks[rank]
	rs.nextID++
	var parent int64
	if len(rs.stack) > 0 {
		parent = rs.stack[len(rs.stack)-1]
	}
	rs.stack = append(rs.stack, rs.nextID)
	return SpanHandle{t: t, s: Span{Rank: rank, Name: name, Cat: cat, Start: start, ID: rs.nextID, Parent: parent, Region: region}}
}

// End closes the span at virtual time end and writes it into the rank's
// ring. Safe on a zero handle.
func (h SpanHandle) End(end model.Time) {
	if h.t == nil {
		return
	}
	rs := &h.t.ranks[h.s.Rank]
	// Pop this span from the open stack; spans end LIFO in practice, but
	// tolerate out-of-order ends by removing wherever the ID sits.
	for i := len(rs.stack) - 1; i >= 0; i-- {
		if rs.stack[i] == h.s.ID {
			rs.stack = append(rs.stack[:i], rs.stack[i+1:]...)
			break
		}
	}
	h.s.End = max(end, h.s.Start)
	h.t.rec.RecordSpan(&h.s)
}

// Ranks reports the number of ranks the tracer records.
func (t *Tracer) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

// Cap reports the per-rank span capacity the tracer was made with. Bound to
// a fabric whose recorder keeps more, the ring keeps more.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// Dropped reports how many finished spans were overwritten on rank after
// its ring filled.
func (t *Tracer) Dropped(rank int) int64 {
	if t == nil {
		return 0
	}
	return t.rec.SpansDropped(rank)
}

// RankSpans returns rank's retained spans in the order they ended, oldest
// first.
func (t *Tracer) RankSpans(rank int) []Span {
	if t == nil {
		return nil
	}
	return t.rec.RankSpans(rank)
}

// Spans returns every retained span of every rank, rank by rank, each
// rank oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for r := range t.ranks {
		out = append(out, t.RankSpans(r)...)
	}
	return out
}
