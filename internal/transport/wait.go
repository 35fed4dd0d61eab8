package transport

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinOneP is the rule's spin at one P. A yield costs ~100ns there; the
// bound keeps a waiter's busy work well under the park/unpark pair it saves.
const spinOneP = 64

// WaitSpin is the one wait rule, read from the host's parallelism: how many
// scheduler yields a waiter makes before it parks. With one P a yield lets
// the goroutine that will satisfy the wait run, usually within a turn or
// two, so the waiter yields up to spinOneP times. With more than one P every
// runtime.Gosched goes through the scheduler's global run-queue lock, which
// the Ps then fight over, so a waiter parks at once. A world reads it once,
// when it is built: the shm ports, the SHMEM boards and the barrier follow
// it (simnet's endpoints park at once; see simnet.NewFabricTopo).
func WaitSpin() int {
	if runtime.GOMAXPROCS(0) == 1 {
		return spinOneP
	}
	return 0
}

// gateParks counts every park, over every gate; see GateParks.
var gateParks atomic.Int64

// GateParks reports the process-lifetime number of parks on any Gate: one
// per park, none for a wait its spin satisfied.
func GateParks() int64 { return gateParks.Load() }

// Gate is where a port's owner goroutine blocks: one per port, made once,
// reused by every wait of that port — posted receives, rendezvous sends, and
// a SHMEM PE's wait_until.
//
// A port has one owner and it blocks on one thing at a time, so one token
// serves every wait. A token can be left over from an earlier completion the
// owner saw for itself (or, on shm, from a mailbox push); it costs one
// spurious wake, which is legal: every wait re-checks its own condition in a
// loop.
//
// Ordering, the one rule for every waker and waiter: the owner announces
// (sleep = 1), re-checks its condition, and only then parks; a waker
// publishes what the owner waits for, then loads sleep and deposits a token
// if it is set. Both sides are sequentially consistent atomics, so either
// the re-check sees the publication or the waker sees the announcement.
type Gate struct {
	_     [64]byte
	sleep uint32 // atomic: the owner has announced it is about to park
	_     [60]byte
	spin  int           // yields before a park: the world's WaitSpin
	tok   chan struct{} // cap 1: "something you may wait on was published"
}

// Init makes the gate's token and fixes its spin. A port calls it once,
// before any waker can see the gate.
func (g *Gate) Init(spin int) {
	g.spin = spin
	g.tok = make(chan struct{}, 1)
}

// Wait blocks the owner until done reports true, or — when d > 0 — until d
// has elapsed, and reports done's last answer. It yields by the rule, then
// parks; a bounded wait arms one timer, at its first park. done must not
// block and may have side effects (shm drains its mailbox in it).
func (g *Gate) Wait(done func() bool, d time.Duration) bool {
	for i := 0; i < g.spin; i++ {
		if done() {
			return true
		}
		runtime.Gosched()
	}
	if done() {
		return true
	}
	atomic.StoreUint32(&g.sleep, 1)
	var t *time.Timer
	var expire <-chan time.Time // nil, which never fires, for an unbounded wait
	for !done() {
		if d > 0 && t == nil {
			t = time.NewTimer(d)
			expire = t.C
		}
		gateParks.Add(1)
		select {
		case <-g.tok:
		case <-expire:
			atomic.StoreUint32(&g.sleep, 0)
			return done()
		}
	}
	atomic.StoreUint32(&g.sleep, 0)
	if t != nil {
		t.Stop()
	}
	return true
}

// Wake deposits a token if the owner announced a park. Call it after
// publishing what the owner waits for; with nobody parked it is one load.
func (g *Gate) Wake() {
	if atomic.LoadUint32(&g.sleep) != 0 {
		select {
		case g.tok <- struct{}{}:
		default:
		}
	}
}
