package simnet

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestBarrierParkedWaitersSurviveNextGeneration drives, step by step on one
// node, the interleaving that used to lose a wakeup: release(g) flips the
// generation, a fast rank comes round again and parks for g+1 before
// release(g) has opened g's gate, and only then does release(g) open it.
// The generation-g sleepers must wake, and the g+1 sleeper must not until
// release(g+1).
func TestBarrierParkedWaitersSurviveNextGeneration(t *testing.T) {
	const g = 6
	nd := newBarNode(3, 1) // generation 0's gate armed, and 6 has its parity
	nd.word.Store(g << 32)
	woke := make(chan uint32, 3)
	_, parks0 := BarrierStats()
	park := func(gen uint32) {
		go func() {
			nd.waitRelease(gen, 0)
			woke <- gen
		}()
	}
	expect := func(gen uint32) {
		t.Helper()
		select {
		case got := <-woke:
			if got != gen {
				t.Fatalf("generation %d waiter woke, want %d", got, gen)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("generation %d waiter never woke", gen)
		}
	}

	park(g)
	park(g)
	awaitParked(t, parks0+2)

	nd.gate[(g+1)&1].Add(1)      // release(g), first half: arm g+1's gate
	nd.word.Store((g + 1) << 32) // and flip
	park(g + 1)                  // the fast rank, a generation ahead
	awaitParked(t, parks0+3)
	nd.gate[g&1].Done() // release(g), second half

	expect(g)
	expect(g)
	select {
	case gen := <-woke:
		t.Fatalf("generation %d waiter woke before its release", gen)
	case <-time.After(20 * time.Millisecond):
	}

	nd.release(0) // release(g+1)
	expect(g + 1)
}

// awaitParked returns once the process-wide park count reaches parks. A
// counted waiter has seen its generation still open and is in, or entering,
// its gate's Wait, where only the release can let it out.
func awaitParked(t *testing.T, parks int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, p := BarrierStats(); p >= parks {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d parked waits", parks)
		}
		runtime.Gosched()
	}
}

// TestBarrierParkAllocFree: a parked wait allocates nothing, on the flat
// node, up a radix-16 tree and on the node-grouped shape. With more than one
// P every waiter that misses the flip parks. The semaphore under a gate
// takes a sudog per sleeper from the runtime's caches, allocating only when
// the sleeper's P and the central cache are both empty; so garbage
// collection, which drops the central cache, is off, and a 1024-rank warm-up
// leaves more sudogs cached than four Ps can hoard (128 each). The runtime
// still starts the odd thread to run woken goroutines (a new M is five
// allocations), so each shape gets three windows of 1000 generations and
// one must read zero; an allocating park moves every window.
func TestBarrierParkAllocFree(t *testing.T) {
	const n, warm, gens, windows = 48, 200, 1000, 3
	withParallelism(t, 4)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runBarrier(t, NewBarrierRadix(1024, 1024), 1024, 4)
	shapes := map[string]*Barrier{
		"flat":    NewBarrierRadix(n, n),
		"radix16": NewBarrierRadix(n, 16),
		"topo":    NewBarrierTopo(n, func(r int) int { return r / 6 }),
	}
	for name, b := range shapes {
		t.Run(name, func(t *testing.T) {
			if b.spin != 0 {
				t.Fatalf("spin = %d at four Ps, want 0 (park at once)", b.spin)
			}
			size := b.Size()
			done := make(chan struct{}, size) // a finished waiter must not park on it
			for me := 1; me < size; me++ {
				go func() {
					for i := 0; i < warm+windows*gens; i++ {
						b.Wait(me, 0)
					}
					done <- struct{}{}
				}()
			}
			for i := 0; i < warm; i++ {
				b.Wait(0, 0)
			}
			var mallocs [windows]uint64
			_, parks0 := BarrierStats()
			for w := range mallocs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < gens; i++ {
					b.Wait(0, 0)
				}
				runtime.ReadMemStats(&after)
				mallocs[w] = after.Mallocs - before.Mallocs
			}
			_, parks1 := BarrierStats()
			for me := 1; me < size; me++ {
				<-done
			}
			if parks1 == parks0 {
				t.Fatalf("no waiter parked in %d generations", windows*gens)
			}
			if min(mallocs[0], mallocs[1], mallocs[2]) != 0 {
				t.Errorf("allocations per window of %d generations %v with %d parked waits, want a window of 0",
					gens, mallocs, parks1-parks0)
			}
		})
	}
}
