package simnet

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// Scale-out stress tests: the barrier and the lazily-allocated matched
// channel path at 1024 ranks with randomized arrival order. They are most
// valuable under `go test -race` (part of `make verify`), where the race
// detector checks the happens-before chains through the barrier's packed
// generation word, the flat-mode running maximum, and the endpoint's
// lazily-installed match channels.

const stressRanks = 1024

// runBarrierStress drives iters generations of b from n goroutines, each
// perturbing its arrival order with a per-rank deterministic RNG, and
// checks every generation's max-reduction result on every rank.
func runBarrierStress(t *testing.T, b *Barrier, n, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for me := 0; me < n; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(me)*2654435761 + 1))
			for it := 0; it < iters; it++ {
				for y := rng.Intn(4); y > 0; y-- {
					runtime.Gosched()
				}
				v := model.Time(it*stressRanks + me)
				got := b.Wait(me, v)
				want := model.Time(it*stressRanks + n - 1)
				if got != want {
					errs <- "generation result mismatch"
					return
				}
			}
		}(me)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBarrierStressFlat exercises the single-node combining barrier (the
// shape one P selects) at 1024 ranks.
func TestBarrierStressFlat(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 8
	}
	runBarrierStress(t, NewBarrierRadix(stressRanks, stressRanks), stressRanks, iters)
}

// TestBarrierStressTree forces the radix-16 combining tree regardless of
// GOMAXPROCS, covering the multi-level winner/release waves.
func TestBarrierStressTree(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 8
	}
	runBarrierStress(t, NewBarrierRadix(stressRanks, 16), stressRanks, iters)
}

// TestMatchStressLazy drives the lazily-allocated matched-channel path at
// 1024 ranks: every rank exchanges with both ring neighbours per round,
// randomly ordering its send before or after its receives so messages land
// on the posted-receive path and the unexpected queue in mixed order.
func TestMatchStressLazy(t *testing.T) {
	n := stressRanks
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	f := NewFabric(n)
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for me := 0; me < n; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			ep := f.Endpoint(me)
			rng := rand.New(rand.NewSource(int64(me)*40503 + 7))
			right := (me + 1) % n
			left := (me + n - 1) % n
			buf := make([]byte, 8)
			out := make([]byte, 8)
			for r := 0; r < rounds; r++ {
				out[0] = byte(me)
				sendFirst := rng.Intn(2) == 0
				if sendFirst {
					wire := transport.GetBuf(len(out))
					copy(wire, out)
					ep.Send(right, r, wire, 0, false)
				}
				rr := ep.PostRecv(left, r, buf, 0)
				if !sendFirst {
					wire := transport.GetBuf(len(out))
					copy(wire, out)
					ep.Send(right, r, wire, 0, false)
				}
				rr.Wait()
				if rr.Len() != 8 || buf[0] != byte(left) {
					errs <- "payload mismatch on matched path"
					rr.Release()
					return
				}
				rr.Release()
			}
		}(me)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
