package trace_test

import (
	"reflect"
	"testing"

	"commintent/internal/simnet"
	"commintent/internal/trace"
)

// TestMatchPairsPerStream: receives consume sends FIFO within a (src, dst,
// tag) stream and in any order across streams; what is left over on either
// side is reported, the unreceived sends grouped by stream.
func TestMatchPairsPerStream(t *testing.T) {
	evs := []simnet.Event{
		0: {Rank: 0, Kind: simnet.EvSend, Peer: 1, Tag: 1},
		1: {Rank: 0, Kind: simnet.EvSend, Peer: 1, Tag: 2},
		2: {Rank: 0, Kind: simnet.EvSend, Peer: 1, Tag: 1},
		3: {Rank: 0, Kind: simnet.EvSend, Peer: 1, Tag: 2},
		4: {Rank: 0, Kind: simnet.EvRecvComplete, Peer: 1, Tag: 1}, // nothing sent 1->0
		5: {Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Tag: 2},
		6: {Rank: 1, Kind: simnet.EvRecvComplete, Peer: 0, Tag: 1},
		7: {Rank: 1, Kind: simnet.EvRecvPost, Peer: 0, Tag: 1}, // not a completion
	}
	m := trace.Match(evs)
	if want := []trace.Pair{{Send: 1, Recv: 5}, {Send: 0, Recv: 6}}; !reflect.DeepEqual(m.Pairs, want) {
		t.Errorf("pairs = %v, want %v", m.Pairs, want)
	}
	if want := []int{4}; !reflect.DeepEqual(m.Unmatched, want) {
		t.Errorf("unmatched = %v, want %v", m.Unmatched, want)
	}
	if want := []int{2, 3}; !reflect.DeepEqual(m.Unreceived, want) {
		t.Errorf("unreceived = %v, want %v", m.Unreceived, want)
	}
}
