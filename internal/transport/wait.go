package transport

import (
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

var gateParks atomic.Int64

// GateParks reports the process-lifetime number of times a wait on a Gate
// blocked: a goroutine parked, or a rank yielded to its run loop.
func GateParks() int64 { return gateParks.Load() }

const awake, parked = 0, 1 // a goroutine owner's announcement in Gate.sleep

// Gate is where one owner blocks: a port's posted receives and rendezvous
// sends, a SHMEM PE's wait_until, a barrier participant's generation. The
// one rule for every waker and waiter: the owner announces its wait,
// re-checks its condition, and only then blocks; a waker publishes, then
// loads the announcement and wakes the owner if it is set. Both sides are
// sequentially consistent atomics, so one of them sees the other.
//
// A rank of a running world announces in its Task and yields to its run
// loop, where the wake queues it; any other owner announces in sleep and
// parks on a token (cap 1, made at the first park). A wake the owner did
// not need costs one spurious resume or a left-over token: every wait
// re-checks its condition in a loop.
type Gate struct {
	sleep uint32 // atomic: awake or parked
	task  *Task
	tok   chan struct{}
}

// Bind makes t the gate's owner, before any waiter or waker sees the gate.
func (g *Gate) Bind(t *Task) { g.task = t }

// bound returns the gate's task if its world is running.
func (g *Gate) bound() *Task {
	if t := g.task; t != nil && t.loop.Load() != nil {
		return t
	}
	return nil
}

// Wait blocks the owner until done reports true, or — when d > 0 — until d
// has elapsed, and reports done's last answer. done must not block and may
// have side effects (shm drains its mailbox in it).
func (g *Gate) Wait(done func() bool, d time.Duration) bool {
	if done() {
		return true
	}
	if t := g.bound(); t != nil {
		return t.wait(g, done, d)
	}
	return g.park(done, d, true)
}

// park is Wait for a goroutine owner; counted says whether its parks are a
// rank's (GateParks) or a run loop's own.
func (g *Gate) park(done func() bool, d time.Duration, counted bool) bool {
	if g.tok == nil {
		g.tok = make(chan struct{}, 1)
	}
	atomic.StoreUint32(&g.sleep, parked)
	var t *time.Timer
	var expire <-chan time.Time // nil, which never fires, for an unbounded wait
	for !done() {
		if d > 0 && t == nil {
			t = time.NewTimer(d)
			expire = t.C
		}
		if counted {
			gateParks.Add(1)
		}
		select {
		case <-g.tok:
		case <-expire:
			atomic.StoreUint32(&g.sleep, awake)
			return done()
		}
	}
	atomic.StoreUint32(&g.sleep, awake)
	if t != nil {
		t.Stop()
	}
	return true
}

// Wake wakes the owner if it announced a wait, and reports whether it had.
// Call it after publishing what the owner waits for.
func (g *Gate) Wake() bool {
	if t := g.bound(); t != nil {
		if !t.claim(g) {
			return false
		}
		t.loop.Load().push(t, t)
		return true
	}
	if atomic.LoadUint32(&g.sleep) != parked {
		return false
	}
	select {
	case g.tok <- struct{}{}:
	default:
	}
	return true
}

// Yield puts the owner at the back of its run loop's queue; outside a
// running world it does nothing. Only the owner may call it.
func (g *Gate) Yield() {
	if t := g.bound(); t != nil {
		if t.on.Swap(queued) != queued {
			t.loop.Load().push(t, t)
		}
		t.yield(struct{}{})
	}
}

// Waker wakes many gates, pushing the tasks it queues on one loop there
// with one CAS when it Flushes or turns to another loop.
type Waker struct {
	loop       *Loop
	head, tail *Task
	woke       int
}

// Wake is Gate.Wake, holding a queued task back.
func (w *Waker) Wake(g *Gate) {
	t := g.bound()
	if t == nil {
		if g.Wake() {
			w.woke++
		}
		return
	}
	if !t.claim(g) {
		return
	}
	if l := t.loop.Load(); w.loop != l {
		w.woke = w.Flush() // the count runs on to the caller's Flush
		w.loop, w.head, w.tail = l, nil, t
	}
	w.woke++
	t.next, w.head = w.head, t // newest first, as single pushes leave them
}

// Flush pushes the held tasks and reports how many owners were woken since
// the last Flush.
func (w *Waker) Flush() int {
	if w.loop != nil {
		w.loop.push(w.head, w.tail)
		w.loop = nil
	}
	n := w.woke
	w.woke = 0
	return n
}

// A task's announcement (Task.on) is running, queued or a gate's addr.
const running, queued uintptr = 0, 1

// addr names a wait on g; it is only compared, never turned back into a
// pointer.
func (g *Gate) addr() uintptr { return uintptr(unsafe.Pointer(g)) }

// Task is one rank's place on a run loop: a coroutine the loop resumes when
// the rank is ready, and that yields to the loop where a wait would block.
// A world makes one per rank and binds the rank's gates to it.
type Task struct {
	// on moves from a gate to queued once per wake, so a task is on its
	// loop's queue at most once.
	on   atomic.Uintptr
	next *Task // link on the loop's inbox

	// Set by Run, read by the owner and by its wakers.
	loop   atomic.Pointer[Loop] // nil outside a run
	yield  func(struct{}) bool
	resume func() (struct{}, bool) // nil once the body has returned

	// The bounded wait in progress, while on the loop's timers.
	deadline time.Time
	expired  bool
}

// claim reports whether the task waited on g and is now the caller's to
// queue.
func (t *Task) claim(g *Gate) bool {
	return t.on.Load() == g.addr() && t.on.CompareAndSwap(g.addr(), queued)
}

// wait is Gate.Wait on a run loop: announce, re-check, yield. A bounded
// wait reads the clock once, at its first yield, and joins the loop's
// timers; the loop fires it before it parks and every expireEvery rounds
// while it is busy, never early.
func (t *Task) wait(g *Gate, done func() bool, d time.Duration) bool {
	l, timed := t.loop.Load(), false
	for {
		t.on.CompareAndSwap(running, g.addr()) // a task already queued stays queued
		if done() {
			break
		}
		if d > 0 && !timed {
			timed = true
			t.deadline, t.expired = time.Now().Add(d), false
			l.timers = append(l.timers, t)
		}
		if timed && t.expired {
			break
		}
		l.parks++
		t.yield(struct{}{})
		if done() {
			break
		}
	}
	if t.on.Load() == g.addr() {
		t.on.CompareAndSwap(g.addr(), running)
	}
	if timed {
		l.timers = slices.DeleteFunc(l.timers, func(u *Task) bool { return u == t })
	}
	return !timed || !t.expired || done()
}

// Loop is one run loop: a goroutine that resumes its ranks one at a time,
// in the order they became ready, and parks on its gate when none is.
type Loop struct {
	gate  Gate                 // unbound: the loop goroutine parks here
	inbox atomic.Pointer[Task] // tasks queued by wakers, newest first
	_     [64]byte             // wakers write the line above, the loop those below

	run     []*Task // ready, in order, from head on
	head    int
	timers  []*Task // waiting with a bound; room for every task of the loop
	refills int
	parks   int64 // yields not yet in GateParks
	watch   bool  // the loops fit the CPUs: watch the inbox before parking
}

// push puts queued tasks head..tail (newest first) on the inbox and wakes
// the loop if it parked.
func (l *Loop) push(head, tail *Task) {
	for {
		old := l.inbox.Load()
		tail.next = old
		if l.inbox.CompareAndSwap(old, head) {
			break
		}
	}
	l.gate.Wake()
}

// expire marks each timer whose deadline has passed, queues its task
// unless a wake has, and returns the time to the next deadline (0 for none).
// A task queued by a wake finds its mark when it resumes.
func (l *Loop) expire() time.Duration {
	now, next := time.Now(), time.Duration(0)
	for _, t := range l.timers {
		if left := t.deadline.Sub(now); left > 0 {
			if next == 0 || left < next {
				next = left
			}
		} else if !t.expired {
			t.expired = true
			if g := t.on.Load(); g > queued && t.on.CompareAndSwap(g, queued) {
				l.push(t, t)
			}
		}
	}
	return next
}

// refill moves the queued tasks, in queue order, onto the empty run queue,
// waiting for a wake or the next deadline while there are none: first, if
// the loop has a CPU of its own, by watching its inbox for up to watchFor,
// then parked. Deadlines are checked before a watch or a park, and every
// expireEvery refills so that ranks that keep waking each other cannot hold
// a deadline of their loop off.
func (l *Loop) refill() {
	l.run, l.head = l.run[:0], 0
	if l.parks != 0 {
		gateParks.Add(l.parks)
		l.parks = 0
	}
	watched := !l.watch
	for {
		var wait time.Duration
		if l.refills++; len(l.timers) > 0 && (l.refills%expireEvery == 0 || l.inbox.Load() == nil) {
			wait = l.expire()
		}
		if t := l.inbox.Swap(nil); t != nil {
			for ; t != nil; t = t.next {
				l.run = append(l.run, t)
			}
			slices.Reverse(l.run)
			return
		}
		if !watched {
			watched = true
			l.watchInbox(wait)
			continue
		}
		l.gate.park(func() bool { return l.inbox.Load() != nil }, wait, false)
	}
}

// watchInbox returns when a task is queued, after watchFor, or after wait
// (> 0).
func (l *Loop) watchInbox(wait time.Duration) {
	if wait <= 0 || wait > watchFor {
		wait = watchFor
	}
	start := time.Now()
	for i := 1; l.inbox.Load() == nil; i++ {
		if i%256 == 0 && time.Since(start) > wait {
			return
		}
	}
}

// A loop that parks is woken onto its waker's P, where it waits for the
// waker to stop: at two Ps that turns every generation of a barrier whose
// halves sit on two loops into the two halves run in turn. A loop with a
// CPU of its own therefore watches its inbox a while first; watchFor covers
// a 256-rank collective's serial step with room to spare.
const (
	expireEvery = 64
	watchFor    = 200 * time.Microsecond
)

// main resumes tasks until live bodies have returned. A body's
// runtime.Goexit ends the goroutine; the loop goes on in a new one.
func (l *Loop) main(live int, wg *sync.WaitGroup) {
	defer func() {
		if live > 0 {
			go l.main(live, wg)
		} else {
			wg.Done()
		}
	}()
	for live > 0 {
		if l.head == len(l.run) {
			l.refill()
		}
		t := l.run[l.head]
		l.head++
		if t.resume == nil {
			continue // queued by a wake that raced with its return
		}
		t.on.Store(running)
		resume := t.resume // counted out until it yields, for a Goexit
		t.resume = nil
		live--
		if _, ok := resume(); ok {
			t.resume = resume
			live++
		}
	}
}

// Run runs body(i) for every task i as a coroutine on loops run loops, each
// a goroutine owning a contiguous block of tasks, started in index order. A
// Go-level block in a body stalls its loop; a panic must not escape body.
func Run(tasks []Task, loops int, body func(i int)) {
	n := len(tasks)
	loops = max(min(loops, n), 1)
	ls := make([]*Loop, loops)
	for k := range ls {
		lo, hi := k*n/loops, (k+1)*n/loops
		l := &Loop{run: make([]*Task, 0, hi-lo), timers: make([]*Task, 0, hi-lo), watch: loops > 1 && loops <= runtime.NumCPU()}
		l.gate.tok = make(chan struct{}, 1)
		for i := lo; i < hi; i++ {
			t := &tasks[i]
			t.on.Store(running)
			t.loop.Store(l)
			t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
				t.yield = yield
				body(i)
			})
			l.run = append(l.run, t)
		}
		ls[k] = l
	}
	var wg sync.WaitGroup // every task has its loop before any starts
	wg.Add(loops)
	for _, l := range ls {
		go l.main(len(l.run), &wg)
	}
	wg.Wait()
	for i := range tasks {
		tasks[i].loop.Store(nil)
		tasks[i].yield, tasks[i].resume = nil, nil
	}
}
