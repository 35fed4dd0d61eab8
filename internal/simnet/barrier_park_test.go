package simnet

import (
	"runtime"
	"testing"
	"time"
)

// TestBarrierParkedWaitersSurviveNextGeneration drives, step by step on one
// node, the interleaving that used to lose a wakeup: release(g) flips the
// generation, a fast rank comes round again and parks for g+1 before
// release(g) has looked at the park record, and only then does release(g)
// look. The generation-g sleepers must still be woken.
func TestBarrierParkedWaitersSurviveNextGeneration(t *testing.T) {
	const g = 6
	nd := &barNode{nchild: 3}
	nd.word.Store(g << 32)
	woke := make(chan uint32, 3)
	park := func(gen uint32) {
		go func() {
			nd.parkWait(gen)
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

	park(g) // installs the record
	awaitParked(t, nd, g)
	park(g) // adopts it, or sees the flip below; it must return either way

	nd.word.Store((g + 1) << 32) // release(g), first half: the flip
	park(g + 1)                  // the fast rank, a generation ahead
	awaitParked(t, nd, g+1)
	nd.wakeParked(g) // release(g), second half

	expect(g)
	expect(g)

	nd.word.Store((g + 2) << 32)
	nd.wakeParked(g + 1)
	expect(g + 1)
}

// awaitParked returns once some waiter has installed nd's park record for
// generation gen.
func awaitParked(t *testing.T, nd *barNode, gen uint32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p := nd.park[gen&1].Load(); p != nil && p.g == gen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no park record for generation %d", gen)
		}
		runtime.Gosched()
	}
}
