// Package trace analyses a run's fabric events: aggregate statistics,
// communication matrices, the send-to-receive matching, timelines and simple
// pattern detection. The events come from the fabric's recorder
// (simnet.Fabric.EnableRecorder); every function here reads only each rank's
// own order, never the interleaving across ranks. It is the analysis layer
// behind cmd/commtrace and the trace assertions in tests — the kind of
// static/dynamic communication analysis the paper argues directives enable.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"commintent/internal/simnet"
)

// Stats summarises a run's events.
type Stats struct {
	PerKind   map[simnet.EventKind]int
	DataBytes int64 // payload bytes of sends, puts and gets
	RecvBytes int64 // payload bytes delivered into receive buffers
	Messages  int   // sends, puts and gets
	Syncs     int   // waits, waitalls, fences, quiets, barriers
}

// StatsOf computes aggregate statistics over a run's events.
func StatsOf(events []simnet.Event) Stats {
	s := Stats{PerKind: make(map[simnet.EventKind]int)}
	for _, e := range events {
		s.PerKind[e.Kind]++
		switch e.Kind {
		case simnet.EvSend, simnet.EvPut, simnet.EvGet:
			s.DataBytes += int64(e.Bytes)
			s.Messages++
		case simnet.EvRecvComplete:
			s.RecvBytes += int64(e.Bytes)
		case simnet.EvWait, simnet.EvSync, simnet.EvBarrier:
			s.Syncs++
		}
	}
	return s
}

// CommMatrix returns bytes moved from each source rank to each destination
// rank of an n-rank run by sends and puts.
func CommMatrix(events []simnet.Event, n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	for _, e := range events {
		if (e.Kind == simnet.EvSend || e.Kind == simnet.EvPut) && e.Peer >= 0 && e.Peer < n && e.Rank >= 0 && e.Rank < n {
			m[e.Rank][e.Peer] += int64(e.Bytes)
		}
	}
	return m
}

// Pattern is a detected point-to-point communication structure.
type Pattern string

const (
	PatternNone     Pattern = "none"
	PatternRing     Pattern = "ring"
	PatternStar     Pattern = "star"     // one hub exchanging with everyone
	PatternNeighbor Pattern = "neighbor" // bidirectional nearest-neighbour
	PatternEvenOdd  Pattern = "even-odd" // even ranks to the next odd rank
	PatternOther    Pattern = "irregular"
)

// DetectPattern classifies a communication matrix against the recurring
// point-to-point patterns of scientific applications the paper cites
// (Vetter & Mueller; Kim & Lilja; Riesen).
func DetectPattern(m [][]int64) Pattern {
	n := len(m)
	if n == 0 {
		return PatternNone
	}
	type edge struct{ s, d int }
	var edges []edge
	for s := range m {
		for d := range m[s] {
			if m[s][d] > 0 {
				edges = append(edges, edge{s, d})
			}
		}
	}
	if len(edges) == 0 {
		return PatternNone
	}
	has := func(s, d int) bool { return s >= 0 && d >= 0 && s < n && d < n && m[s][d] > 0 }
	all := func(pred func(e edge) bool) bool {
		for _, e := range edges {
			if !pred(e) {
				return false
			}
		}
		return true
	}
	// Ring: every rank sends exactly to (rank+1) mod n, and all ranks do.
	if len(edges) == n && all(func(e edge) bool { return e.d == (e.s+1)%n }) {
		return PatternRing
	}
	// Even-odd: even ranks send to rank+1 only.
	if all(func(e edge) bool { return e.s%2 == 0 && e.d == e.s+1 }) {
		return PatternEvenOdd
	}
	// Star: some hub h participates in every edge.
	for h := 0; h < n; h++ {
		if all(func(e edge) bool { return e.s == h || e.d == h }) {
			return PatternStar
		}
	}
	// Neighbour: all edges connect adjacent ranks in both directions.
	if all(func(e edge) bool { return e.d == e.s+1 || e.d == e.s-1 }) {
		// Require symmetry for the bidirectional variant.
		sym := true
		for _, e := range edges {
			if !has(e.d, e.s) {
				sym = false
				break
			}
		}
		if sym {
			return PatternNeighbor
		}
	}
	return PatternOther
}

// FormatMatrix renders a communication matrix for terminal output.
func FormatMatrix(m [][]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "")
	for d := range m {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("->%d", d))
	}
	b.WriteByte('\n')
	for s := range m {
		fmt.Fprintf(&b, "%6s", fmt.Sprintf("%d:", s))
		for d := range m[s] {
			fmt.Fprintf(&b, "%8d", m[s][d])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Timeline renders the first limit events of selected ranks, ordered by
// virtual time (then rank), as a readable trace.
func Timeline(events []simnet.Event, limit int, ranks ...int) string {
	want := map[int]bool{}
	for _, r := range ranks {
		want[r] = true
	}
	var sel []simnet.Event
	for _, e := range events {
		if len(want) == 0 || want[e.Rank] {
			sel = append(sel, e)
		}
	}
	sort.SliceStable(sel, func(i, j int) bool {
		if sel[i].V != sel[j].V {
			return sel[i].V < sel[j].V
		}
		return sel[i].Rank < sel[j].Rank
	})
	if limit > 0 && len(sel) > limit {
		sel = sel[:limit]
	}
	var b strings.Builder
	for _, e := range sel {
		peer := "-"
		if e.Peer >= 0 {
			peer = fmt.Sprint(e.Peer)
		}
		fmt.Fprintf(&b, "%12v  rank %3d  %-14s peer=%-4s tag=%-4d bytes=%d\n",
			e.V, e.Rank, e.Kind, peer, e.Tag, e.Bytes)
	}
	return b.String()
}
