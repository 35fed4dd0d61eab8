package trace

import "commintent/internal/simnet"

// stream identifies one FIFO message stream: the sends from Src to Dst under
// Tag, and the receive completions on Dst that consume them. The transports
// match in order within a stream and in no particular order across streams,
// so this is the finest key under which send order predicts receive order.
type stream struct{ Src, Dst, Tag int }

// Pair is one receive completion and the send it consumed, as indices into
// the matched event slice.
type Pair struct{ Send, Recv int }

// Matching is the send→receive pairing of a run's two-sided traffic.
type Matching struct {
	Pairs      []Pair // in receive-completion order
	Unmatched  []int  // receive completions no send accounts for
	Unreceived []int  // sends no receive completed, grouped by stream in first-send order
}

// Match pairs every receive completion with the earliest unconsumed send of
// its stream. events may interleave ranks in any way that keeps each rank's
// own events in program order (simnet.Recorder.Events does): sends are
// queued per stream in their sender's order, then completions consume them
// in their receiver's order. Events naming a negative peer are ignored.
func Match(events []simnet.Event) Matching {
	var m Matching
	queues := make(map[stream][]int)
	var order []stream // streams by first send, so Unreceived is deterministic
	for i, e := range events {
		if e.Kind == simnet.EvSend && e.Peer >= 0 {
			k := stream{Src: e.Rank, Dst: e.Peer, Tag: e.Tag}
			if _, seen := queues[k]; !seen {
				order = append(order, k)
			}
			queues[k] = append(queues[k], i)
		}
	}
	for i, e := range events {
		if e.Kind != simnet.EvRecvComplete || e.Peer < 0 {
			continue
		}
		k := stream{Src: e.Peer, Dst: e.Rank, Tag: e.Tag}
		if q := queues[k]; len(q) > 0 {
			m.Pairs = append(m.Pairs, Pair{Send: q[0], Recv: i})
			queues[k] = q[1:]
		} else {
			m.Unmatched = append(m.Unmatched, i)
		}
	}
	for _, k := range order {
		m.Unreceived = append(m.Unreceived, queues[k]...)
	}
	return m
}
