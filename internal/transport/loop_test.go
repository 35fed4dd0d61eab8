package transport_test

import (
	"sync/atomic"
	"testing"
	"time"

	"commintent/internal/transport"
)

// TestRunLoopDeadlineSurvivesSpuriousWakes: a bounded wait fires though a
// wake it did not need lands on it each time its busy loop checks the
// deadlines. Two tasks share one loop: task 0 waits, bounded, for what
// never comes; task 1 wakes task 0's gate for nothing and yields, over and
// over for three bounds, so task 0 is queued at every check; then task 1
// waits, unbounded, for task 0 to return.
func TestRunLoopDeadlineSurvivesSpuriousWakes(t *testing.T) {
	const bound = 5 * time.Millisecond
	tasks := make([]transport.Task, 2)
	var g0, g1 transport.Gate
	g0.Bind(&tasks[0])
	g1.Bind(&tasks[1])
	var returned atomic.Bool
	var met bool
	var waited time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.Run(tasks, 1, func(i int) {
			if i == 0 {
				start := time.Now()
				met = g0.Wait(func() bool { return false }, bound)
				waited = time.Since(start)
				returned.Store(true)
				g1.Wake()
				return
			}
			for end := time.Now().Add(3 * bound); time.Now().Before(end); {
				g0.Wake()
				g1.Yield()
			}
			g1.Wait(returned.Load, 0)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the bounded wait never fired")
	}
	if met || waited < bound {
		t.Errorf("wait reported %v after %v, want false after at least %v", met, waited, bound)
	}
}
