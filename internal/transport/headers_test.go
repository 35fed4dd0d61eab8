package transport_test

import (
	"runtime"
	"testing"

	"commintent/internal/transport"
)

// TestRecycledHeadersAllocFree: with the ranks on two Ps or more, two ranks
// exchanging eager messages allocate nothing once warm, on either feeder.
// Each rank's receive handles stay on its own port, and a header completed
// on the receiver's goroutine goes back to its sender's port, so neither
// side draws on memory the other keeps. The messages carry no payload,
// which keeps the payload pool out of the count. make verify runs it under
// -race at four Ps, and without the detector at two.
func TestRecycledHeadersAllocFree(t *testing.T) { exchangeAllocFree(t, 0) }

// TestWireBuffersAllocFree is TestRecycledHeadersAllocFree with a 256-B
// payload drawn from the sender's port: the payload rides home on its
// header, so the exchange allocates nothing and never falls back to the
// shared pool.
func TestWireBuffersAllocFree(t *testing.T) { exchangeAllocFree(t, 256) }

// exchangeAllocFree runs the two-rank exchange with payload bytes per
// message and fails if, once warm, the transport allocates or a port draws
// on the shared pool.
func exchangeAllocFree(t *testing.T, payload int) {
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
			// receive, send, wait.
			var start [2]chan int
			done := make(chan struct{})
			for rank := range 2 {
				start[rank] = make(chan int)
				go func() {
					p, peer := port(rank), 1-rank
					var buf []byte
					if payload > 0 {
						buf = make([]byte, payload)
					}
					for rounds := range start[rank] {
						for range rounds {
							r := p.PostRecv(peer, 7, buf, 0)
							var data []byte
							if payload > 0 {
								data = p.Headers().GetBuf(payload)
							}
							p.Send(peer, 7, data, 0, false)
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
			drawn := func() int {
				return transport.Drawn(port(0).Headers(), payload) + transport.Drawn(port(1).Headers(), payload)
			}
			exchange(warm)
			before, drawn0 := transportAllocs(), drawn()
			exchange(msgs / 2)
			if got := transportAllocs() - before; got != 0 {
				t.Errorf("%d eager messages: the transport allocated %d times, want none", msgs, got)
			}
			if d := drawn() - drawn0; d != 0 {
				t.Errorf("%d eager messages: the ports drew %d buffers from the shared pool, want none", msgs, d)
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
