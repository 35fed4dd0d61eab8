package transport_test

import (
	"regexp"
	"runtime"
	"strings"
	"testing"

	"commintent/internal/model"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
	"commintent/internal/transport"
)

// TestGateParkAllocFree: with the ranks on two Ps or more, where every wait
// that is not already satisfied parks at once, parking allocates nothing
// from our code — through a rendezvous WaitMatched and a Recv.Wait on both
// transports, and through shmem's WaitUntil. Two ranks ping-pong, so waits
// park. The heap profile counts the allocations made inside a wait
// whose innermost frame is ours (a parked goroutine's wait record is the
// runtime's). make verify runs it under -race at four Ps, and without the
// detector at two.
func TestGateParkAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const warm, rounds = 500, 2000
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	measure := func(t *testing.T, run func(rounds int)) {
		t.Helper()
		run(warm)
		allocs, parks := parkAllocs(), transport.GateParks()
		run(rounds)
		if transport.GateParks() == parks {
			t.Fatalf("no wait parked in %d rounds", rounds)
		}
		if got := parkAllocs() - allocs; got != 0 {
			t.Errorf("%d rounds with %d parked waits: %d allocations inside waits, want none",
				rounds, transport.GateParks()-parks, got)
		}
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			port := w.open(2)
			measure(t, func(rounds int) {
				// The ranks take turns to lead a round: the leader sends an
				// eager go-ahead and a rendezvous message and awaits its
				// match; the follower receives both. The follower is a
				// wake-up behind the leader's WaitMatched, and the leader's
				// go-ahead finds the follower parked in Recv.Wait.
				done := make(chan struct{})
				for rank := range 2 {
					go func() {
						p, peer := port(rank), 1-rank
						for i := range rounds {
							if i%2 == rank {
								p.Send(peer, 1, nil, 0, false)
								p.Send(peer, 2, nil, 0, true).Msg.WaitMatched()
								continue
							}
							for tag := 1; tag <= 2; tag++ {
								r := p.PostRecv(peer, tag, nil, 0)
								r.Wait()
								r.Release()
							}
						}
						done <- struct{}{}
					}()
				}
				<-done
				<-done
			})
		})
	}
	t.Run("shmem", func(t *testing.T) {
		world, err := spmd.NewWorld(2, model.Uniform(100))
		if err != nil {
			t.Fatal(err)
		}
		measure(t, func(rounds int) {
			// The ranks take turns raising a counter on the other.
			err := world.Run(func(rk *spmd.Rank) error {
				ctx := shmem.New(rk)
				flag := shmem.MustAlloc[int64](ctx, 1)
				for i := int64(1); i <= int64(rounds); i++ {
					if rk.ID == 0 {
						if err := flag.P(ctx, 1, 0, i); err != nil {
							return err
						}
					}
					if err := flag.WaitUntil(ctx, 0, shmem.CmpGE, i); err != nil {
						return err
					}
					if rk.ID == 1 {
						if err := flag.P(ctx, 0, 0, i); err != nil {
							return err
						}
					}
				}
				ctx.BarrierAll()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	})
}

// waitFrame names the blocking entry points a parked wait runs under.
var waitFrame = regexp.MustCompile(`^commintent/internal/(transport\.\(\*(Msg|Recv|Gate)\)\.(Wait\w*|park)|shmem\.\(\*Slice\[.*\]\)\.waitUntil)$`)

// parkAllocs counts the allocations made so far inside a wait by the
// transports, the shmem layer, or the gate: records whose innermost frame is
// in one of those packages and whose stack passes through a wait.
func parkAllocs() int64 {
	var total int64
	for _, r := range memProfile() {
		frames := runtime.CallersFrames(r.Stack())
		f, more := frames.Next()
		if !ours(f.Function, "transport", "simnet", "shmtransport", "shmem") {
			continue
		}
		for {
			if waitFrame.MatchString(f.Function) {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
			f, more = frames.Next()
		}
	}
	return total
}

// ours reports whether fn belongs to one of the named internal packages.
func ours(fn string, pkgs ...string) bool {
	for _, pkg := range pkgs {
		if strings.HasPrefix(fn, "commintent/internal/"+pkg+".") {
			return true
		}
	}
	return false
}
