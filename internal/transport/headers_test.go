package transport_test

import (
	"runtime"
	"testing"
)

// TestRecycledHeadersAllocFree: with the ranks on two Ps or more, two ranks
// exchanging eager messages allocate nothing once warm, on either feeder.
// Each rank's receive handles stay on its own port, and a header completed
// on the receiver's goroutine goes back to its sender's port, so neither
// side draws on memory the other keeps. make verify runs it under -race at
// four Ps, and without the detector at two.
func TestRecycledHeadersAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const warm, msgs = 2000, 10000
	// Every allocation is profiled from here on, so transportAllocs counts
	// the measured exchange exactly.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			port := w.open(2)
			// Each rank runs on a goroutine of its own for the whole test
			// and, per exchange, sends the peer rounds messages: post the
			// receive, send, wait. The messages carry no payload, which
			// keeps the payload pool and its own high-water marks out of
			// the count.
			var start [2]chan int
			done := make(chan struct{})
			for rank := range 2 {
				start[rank] = make(chan int)
				go func() {
					p, peer := port(rank), 1-rank
					for rounds := range start[rank] {
						for range rounds {
							r := p.PostRecv(peer, 7, nil, 0)
							p.Send(peer, 7, nil, 0, false)
							r.Wait()
							r.Release()
						}
						done <- struct{}{}
					}
				}()
			}
			defer func() {
				for _, c := range start {
					close(c)
				}
			}()
			exchange := func(rounds int) {
				for _, c := range start {
					c <- rounds
				}
				<-done
				<-done
			}
			exchange(warm)
			before := transportAllocs()
			exchange(msgs / 2)
			if got := transportAllocs() - before; got != 0 {
				t.Errorf("%d eager messages: the transport allocated %d times, want none", msgs, got)
			}
		})
	}
}

// transportAllocs counts the allocations made so far by the transport and
// its two feeders themselves, from the heap profile: the allocations whose
// innermost frame is theirs. A goroutine that parks on a channel, a mutex or
// a WaitGroup may make the runtime allocate its wait record; those are the
// runtime's, and the profile names the runtime for them.
func transportAllocs() int64 {
	var total int64
	for _, r := range memProfile() {
		f, _ := runtime.CallersFrames(r.Stack()).Next()
		if ours(f.Function, "transport", "simnet", "shmtransport") {
			total += r.AllocObjects
		}
	}
	return total
}

// memProfile returns the heap profile's records. The profile is published
// by garbage collections and may lag by two.
func memProfile() []runtime.MemProfileRecord {
	for range 3 {
		runtime.GC()
	}
	recs := make([]runtime.MemProfileRecord, 64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:n]
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
}
