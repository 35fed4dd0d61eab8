package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/trace"
)

// PathSegment is one same-rank stretch of the critical path: the rank
// executed Events operations from Start to End before (walking backward)
// the chain crossed to another rank via a message edge.
type PathSegment struct {
	Rank     int
	Start    model.Time // V of the earliest event of the stretch
	End      model.Time // V of the latest event of the stretch
	Events   int        // fabric events traversed on this rank
	FromRank int        // rank the chain arrived from (-1 for the first segment)
	FromV    model.Time // V of the send that carried the dependency in
}

// CritReport is the critical-path analysis of one run's event trace: the
// longest dependency chain across recv-completion edges, per-rank idle
// (wait) time, and the load-imbalance ratio — the numbers a scaling table
// is built from.
type CritReport struct {
	Ranks    int
	Events   int
	Makespan model.Time // latest event time observed

	// Chain is the critical path, earliest segment first. ChainEdges is
	// the number of cross-rank message edges on it (the "length" of the
	// dependency chain); ChainEvents the total events traversed.
	Chain       []PathSegment
	ChainEdges  int
	ChainEvents int

	PerRankFinish []model.Time // last event time per rank
	PerRankIdle   []model.Time // summed blocked time per rank (Event.Idle)

	// Imbalance is max(finish) / mean(finish): 1.0 is perfectly balanced.
	Imbalance float64

	// Regions breaks the trace down by the directive region that issued
	// each event (Event.Region), sorted by region ID. Populated only when
	// the trace carries attribution (some event has a nonzero region);
	// region 0 then aggregates the unattributed remainder.
	Regions []RegionStat
}

// RegionStat aggregates the events attributed to one directive region — the
// per-pattern observation record an online autotuner consumes.
type RegionStat struct {
	Region int
	Events int
	Bytes  int64      // payload bytes of the region's sends, puts and gets
	Idle   model.Time // summed blocked time of the region's waits/syncs/barriers
	OnPath int        // critical-path chain events attributed to the region
}

// String renders the report for terminal output.
func (r *CritReport) String() string { return r.StringWithLabels(nil) }

// StringWithLabels renders the report, resolving region IDs through resolve
// (e.g. simnet.Fabric.RegionLabel); nil prints bare IDs.
func (r *CritReport) StringWithLabels(resolve func(int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d message edge(s) over %d event(s), makespan %v\n",
		r.ChainEdges, r.ChainEvents, r.Makespan)
	for i, s := range r.Chain {
		via := "start"
		if s.FromRank >= 0 {
			via = fmt.Sprintf("<- msg from rank %d @%v", s.FromRank, s.FromV)
		}
		fmt.Fprintf(&b, "  seg %2d: rank %3d  [%v .. %v]  %d event(s)  %s\n",
			i, s.Rank, s.Start, s.End, s.Events, via)
	}
	fmt.Fprintf(&b, "per-rank idle (wait) time:\n")
	for rk := 0; rk < r.Ranks; rk++ {
		var idle, fin model.Time
		if rk < len(r.PerRankIdle) {
			idle = r.PerRankIdle[rk]
		}
		if rk < len(r.PerRankFinish) {
			fin = r.PerRankFinish[rk]
		}
		pct := 0.0
		if fin > 0 {
			pct = 100 * float64(idle) / float64(fin)
		}
		fmt.Fprintf(&b, "  rank %3d: idle %12v of %12v (%.1f%%)\n", rk, idle, fin, pct)
	}
	fmt.Fprintf(&b, "load imbalance (max/mean finish): %.3f\n", r.Imbalance)
	if len(r.Regions) > 0 {
		b.WriteString("per-region breakdown:\n")
		for _, rs := range r.Regions {
			name := ""
			if resolve != nil {
				name = resolve(rs.Region)
			}
			if name == "" {
				if rs.Region == 0 {
					name = "(unattributed)"
				} else {
					name = fmt.Sprintf("region#%d", rs.Region)
				}
			}
			fmt.Fprintf(&b, "  %-24s %6d event(s)  %10d B  idle %12v  on-path %d\n",
				name, rs.Events, rs.Bytes, rs.Idle, rs.OnPath)
		}
	}
	return b.String()
}

// CriticalPath analyses a run's fabric events. It matches each
// recv-complete to the earliest unconsumed send of the same (source,
// destination, tag) stream — the fabric delivers and matches FIFO per
// pair, so this reconstructs the true dependency in the common case —
// and walks the resulting DAG backward from the latest event, at each
// step following the predecessor (same-rank program order, or the
// matched send) that completed last. Per-rank idle time is the sum of
// the blocked time the substrates record on their wait/sync/barrier
// events.
func CriticalPath(events []simnet.Event, n int) *CritReport {
	rep := &CritReport{
		Ranks:         n,
		Events:        len(events),
		PerRankFinish: make([]model.Time, n),
		PerRankIdle:   make([]model.Time, n),
	}
	if len(events) == 0 || n <= 0 {
		rep.Imbalance = 1
		return rep
	}

	// Per-rank event sequences in emission order. Each rank's clock is
	// monotone, so per-rank order is virtual-time order; the global slice
	// interleaves ranks arbitrarily.
	perRank := make([][]int, n)
	regStats := make(map[int]*RegionStat)
	attributed := false
	regOf := func(id int) *RegionStat {
		rs := regStats[id]
		if rs == nil {
			rs = &RegionStat{Region: id}
			regStats[id] = rs
		}
		return rs
	}
	for i, e := range events {
		if e.Rank < 0 || e.Rank >= n {
			continue
		}
		perRank[e.Rank] = append(perRank[e.Rank], i)
		if e.V > rep.PerRankFinish[e.Rank] {
			rep.PerRankFinish[e.Rank] = e.V
		}
		rep.PerRankIdle[e.Rank] += e.Idle
		if e.V > rep.Makespan {
			rep.Makespan = e.V
		}
		rs := regOf(e.Region)
		rs.Events++
		rs.Idle += e.Idle
		switch e.Kind {
		case simnet.EvSend, simnet.EvPut, simnet.EvGet:
			rs.Bytes += int64(e.Bytes)
		}
		if e.Region != 0 {
			attributed = true
		}
	}

	// FIFO send matching per (src,dst,tag) stream; a send from outside the
	// world is no predecessor.
	matchedSend := make(map[int]int) // recv-complete event index -> send event index
	for _, p := range trace.Match(events).Pairs {
		if s := events[p.Send].Rank; s >= 0 && s < n {
			matchedSend[p.Recv] = p.Send
		}
	}

	// posInRank[i] is event i's position within its rank's sequence.
	posInRank := make(map[int]int, len(events))
	for r := 0; r < n; r++ {
		for p, i := range perRank[r] {
			posInRank[i] = p
		}
	}

	// Backtrack from the globally latest event.
	cur := -1
	for i, e := range events {
		if e.Rank < 0 || e.Rank >= n {
			continue
		}
		if cur < 0 || e.V > events[cur].V {
			cur = i
		}
	}

	type step struct {
		idx   int
		cross bool // reached (backward) via a message edge
	}
	var chain []step
	for cur >= 0 {
		e := events[cur]
		prev := -1
		if p := posInRank[cur]; p > 0 {
			prev = perRank[e.Rank][p-1]
		}
		send, hasSend := matchedSend[cur]
		// Prefer the predecessor that finished last: it bounds when this
		// event could complete. On ties prefer the message edge — the
		// cross-rank dependency is the structural one.
		next, cross := -1, false
		if hasSend && (prev < 0 || events[send].V >= events[prev].V) {
			next, cross = send, true
		} else if prev >= 0 {
			next, cross = prev, false
		}
		chain = append(chain, step{idx: cur, cross: cross})
		if next < 0 {
			break
		}
		cur = next
		if len(chain) > len(events) {
			break // defensive: cannot happen on a well-formed trace
		}
	}

	// chain is latest-first; fold into earliest-first same-rank segments.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	rep.ChainEvents = len(chain)
	for i := 0; i < len(chain); {
		e := events[chain[i].idx]
		seg := PathSegment{Rank: e.Rank, Start: e.V, End: e.V, FromRank: -1}
		if i > 0 {
			// chain[i].cross was recorded on the *later* event of the
			// backward edge; after reversal the flag that connects
			// segment boundaries sits on the first event of the next
			// segment, which is chain[i] looking backward to chain[i-1].
			from := events[chain[i-1].idx]
			seg.FromRank = from.Rank
			seg.FromV = from.V
		}
		j := i
		for j < len(chain) && events[chain[j].idx].Rank == e.Rank {
			seg.End = events[chain[j].idx].V
			seg.Events++
			j++
		}
		rep.Chain = append(rep.Chain, seg)
		i = j
	}
	rep.ChainEdges = len(rep.Chain) - 1
	if rep.ChainEdges < 0 {
		rep.ChainEdges = 0
	}
	if attributed {
		for _, st := range chain {
			regOf(events[st.idx].Region).OnPath++
		}
		for _, rs := range regStats {
			rep.Regions = append(rep.Regions, *rs)
		}
		sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].Region < rep.Regions[j].Region })
	}

	var sum model.Time
	var mx model.Time
	for _, f := range rep.PerRankFinish {
		sum += f
		if f > mx {
			mx = f
		}
	}
	if sum > 0 {
		rep.Imbalance = float64(mx) / (float64(sum) / float64(n))
	} else {
		rep.Imbalance = 1
	}
	return rep
}
