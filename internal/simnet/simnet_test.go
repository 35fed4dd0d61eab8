package simnet

import (
	"sync"
	"testing"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// Matching semantics (source/tag/wildcards, FIFO, truncation, probe, cancel,
// rendezvous, counts) are checked once for both transports by the Port
// conformance suite in internal/transport; the tests in this package cover
// what only simnet has: the barrier, the event stream, the fault injector in
// front of the feeder, and the feeder and token wait under concurrency.

// send is the copying convenience the tests want over the ownership-transfer
// Send: an eager message carrying a pooled copy of data.
func send(ep *Endpoint, dst, tag int, data []byte, arriveV model.Time) transport.SendResult {
	b := transport.GetBuf(len(data))
	copy(b, data)
	return ep.Send(dst, tag, b, arriveV, false)
}

func TestBarrierMaxReduces(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var wg sync.WaitGroup
	results := make([]model.Time, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = b.Wait(i, model.Time(i*100))
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r != model.Time((n-1)*100) {
			t.Errorf("participant %d got %v", i, r)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	const n = 4
	b := NewBarrier(n)
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		results := make([]model.Time, n)
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = b.Wait(i, model.Time(round*1000+i))
			}()
		}
		wg.Wait()
		want := model.Time(round*1000 + n - 1)
		for i, r := range results {
			if r != want {
				t.Fatalf("round %d participant %d: %v want %v", round, i, r, want)
			}
		}
	}
}

func TestEventEmission(t *testing.T) {
	f := NewFabric(2)
	var mu sync.Mutex
	var got []Event
	f.Observe(func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	f.Emit(Event{Rank: 0, Kind: EvSend, Peer: 1, Bytes: 8})
	f.Emit(Event{Rank: 1, Kind: EvRecvComplete, Peer: 0, Bytes: 8})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Kind != EvSend || got[1].Kind != EvRecvComplete {
		t.Errorf("events = %+v", got)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvSend, EvRecvPost, EvRecvComplete, EvPut, EvGet, EvBarrier, EvWait, EvSync}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad string %q", int(k), s)
		}
		seen[s] = true
	}
}
