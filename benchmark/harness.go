package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"commintent/internal/model"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

// warmup is the number of untimed ops each selected rung runs before the
// steady-state window opens (window creation, handle caches, pool fill).
const warmup = 20

// trialTimeout is how long a trial may run before it is declared hung. The
// longest healthy trial takes under 10 s; a hung one must fail the run well
// inside the 180 s a driver allows it.
const trialTimeout = 60 * time.Second

// errMismatch is what an op returns when it completed but the bytes that
// landed are not the ones the seeded inputs say should have landed. It is
// counted, not fatal: the world keeps running.
var errMismatch = errors.New("landed bytes do not match the generated inputs")

// rung is one entry point into the stack for a workload: the same
// communication, issued at one layer boundary.
type rung struct {
	name string
	// op runs one whole-world operation on the calling rank and checks what
	// landed. span is the op's own measured virtual time, for workloads
	// that time themselves (Fig. 4's Measure); zero otherwise.
	op func(seq int) (span model.Time, err error)
	// enter and leave run on rank 0 alone, around each batch of this rung,
	// while every other rank is held between two barriers.
	enter, leave func()
}

// plainRung wraps an op that does not time itself.
func plainRung(name string, op func(seq int) error) *rung {
	return &rung{name: name, op: func(seq int) (model.Time, error) { return 0, op(seq) }}
}

// barrierRung is the world barrier alone: the floor under every rung that
// synchronises the world, and what the harness itself pays per batch.
func barrierRung(rk *spmd.Rank) *rung {
	bar := rk.World().Fabric().WorldBarrier()
	return plainRung("barrier", func(int) error {
		bar.Wait(rk.ID, rk.Now())
		return nil
	})
}

// program is one rank's instance of a workload: every rung, bottom first.
type program struct {
	rungs []*rung
	close func() error
}

func (p *program) rung(name string) *rung {
	for _, r := range p.rungs {
		if r.name == name {
			return r
		}
	}
	return nil
}

// trialCfg describes one world's life: build it, warm up, then run batches
// of the selected rungs.
type trialCfg struct {
	w         *workload
	in        *inputs
	rungs     []string // entry points to run; rounds visit them in seeded order
	batch     int      // K: ops per batch
	rounds    int      // passes over rungs: op counts are fixed, not scaled to time
	orderSeed int64
	tele      *telemetry.Telemetry
}

// batchRec is rank 0's record of one batch.
type batchRec struct {
	rung    int
	us      float64    // host wall time per op
	v       model.Time // virtual time of the whole batch
	mallocs float64    // per op; fenced trials only
}

// trial is what one world measured.
type trial struct {
	rungs   []string
	batches []batchRec
	ops     int // whole-world ops in the steady-state window
	issued  int // ops issued in all, warm-up included; every one is checked
	failed  int // ops whose landed-bytes check failed on some rank

	setupS     float64
	worldNewUS float64
	spawnUS    float64
	times      map[string]float64 // set-up phases timed on rank 0, µs

	windowV  model.Time // world clock when the window opened
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	cpuUS    float64
	hwm      int              // unexpected-queue high watermark, max over ranks
	counters map[string]int64 // telemetry counter deltas over the window
}

// of returns the batches of one rung.
func (t *trial) of(rung string) []batchRec {
	var out []batchRec
	for _, b := range t.batches {
		if t.rungs[b.rung] == rung {
			out = append(out, b)
		}
	}
	return out
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runTrial builds a fresh world and measures it. An op error or a rank
// panic aborts the trial at once: the other ranks are blocked on the failed
// one, so the world is abandoned rather than joined.
func runTrial(c trialCfg) (*trial, error) {
	w := c.w
	// A fenced trial holds every rank at each batch boundary while rank 0
	// reads the allocator, so allocations are attributed per rung. A single
	// rung needs no attribution, and is measured without the stall.
	fenced := len(c.rungs) > 1
	runtime.GOMAXPROCS(w.procs)
	runtime.GC()
	t := &trial{rungs: c.rungs, times: map[string]float64{}}

	start := time.Now()
	prof := model.GeminiLike()
	prof.Transport = w.transport
	world, err := spmd.NewWorld(w.ranks, prof)
	if err != nil {
		return nil, err
	}
	t.worldNewUS = micros(time.Since(start))
	if c.tele != nil {
		world.SetTelemetry(c.tele)
	}
	sh, err := w.prepare(t)
	if err != nil {
		return nil, err
	}

	n := world.Size()
	bar := world.Fabric().WorldBarrier()
	failed := make([][]int, n)
	hwm := make([]int, n)
	spawn := time.Now()

	body := func(rk *spmd.Rank) error {
		// sync is the harness barrier: it charges nothing and leaves every
		// clock at the world maximum, so a batch's virtual time is the
		// difference of two folds.
		sync := func() model.Time {
			v := bar.Wait(rk.ID, rk.Now())
			rk.Clock().AdvanceTo(v)
			return v
		}
		sync()
		if rk.ID == 0 {
			t.spawnUS = micros(time.Since(spawn))
		}
		want := func(name string) bool { return slices.Contains(c.rungs, name) }
		prog, err := w.setup(rk, sh, c.in, sync, want)
		if err != nil {
			return err
		}
		sel := make([]*rung, len(c.rungs))
		for i, name := range c.rungs {
			if sel[i] = prog.rung(name); sel[i] == nil {
				return fmt.Errorf("workload %s has no rung %q", w.name, name)
			}
		}

		seq := 0
		run := func(r *rung, k int) (model.Time, error) {
			var span model.Time
			for j := 0; j < k; j++ {
				d, err := r.op(seq)
				if err == errMismatch {
					failed[rk.ID] = append(failed[rk.ID], seq)
				} else if err != nil {
					return 0, fmt.Errorf("rung %s op %d: %w", r.name, seq, err)
				}
				span += d
				seq++
			}
			return span, nil
		}
		for _, r := range sel {
			if rk.ID == 0 && r.enter != nil {
				r.enter()
			}
			sync()
			if _, err := run(r, warmup); err != nil {
				return err
			}
			sync()
			if rk.ID == 0 && r.leave != nil {
				r.leave()
			}
		}

		// Rank 0 keeps the books. Everything it reads at a boundary is read
		// between the barrier that ends one batch and the one that starts
		// the next.
		var (
			ms         runtime.MemStats
			open       = -1 // rung index of the open batch
			openT      time.Time
			openV      model.Time
			openMalloc uint64
			winCPU     time.Duration
			winMS      runtime.MemStats
			tele0      map[string]int64
		)
		boundary := func(next int, span model.Time, first bool) {
			v := sync()
			last := next < 0
			if rk.ID == 0 {
				now := time.Now()
				if open >= 0 {
					rec := batchRec{rung: open, us: micros(now.Sub(openT)) / float64(c.batch)}
					if rec.v = v - openV; w.selfTimed {
						rec.v = span
					}
					if fenced {
						runtime.ReadMemStats(&ms)
						rec.mallocs = float64(ms.Mallocs-openMalloc) / float64(c.batch)
					}
					t.batches = append(t.batches, rec)
					if sel[open].leave != nil {
						sel[open].leave()
					}
				}
				if first {
					t.setupS = time.Since(start).Seconds()
					t.windowV = v
					tele0 = readCounters(c.tele, n)
					runtime.ReadMemStats(&winMS)
					winCPU = cpuTime()
				}
				if last {
					t.cpuUS = micros(cpuTime() - winCPU)
					runtime.ReadMemStats(&ms)
					t.mallocs = ms.Mallocs - winMS.Mallocs
					t.bytes = ms.TotalAlloc - winMS.TotalAlloc
					t.gcCycles = ms.NumGC - winMS.NumGC
					t.counters = map[string]int64{}
					for k, v1 := range readCounters(c.tele, n) {
						t.counters[k] = v1 - tele0[k]
					}
				} else {
					if sel[next].enter != nil {
						sel[next].enter()
					}
					if fenced {
						runtime.ReadMemStats(&ms)
						openMalloc = ms.Mallocs
					}
					open, openV, openT = next, v, time.Now()
				}
			}
			if fenced || first || last {
				sync()
			}
		}

		order := rand.New(rand.NewSource(c.orderSeed)) // the same stream on every rank
		var span model.Time
		first := true
		for round := 0; round < c.rounds; round++ {
			for _, ri := range order.Perm(len(sel)) {
				boundary(ri, span, first)
				first = false
				if span, err = run(sel[ri], c.batch); err != nil {
					return err
				}
				if rk.ID == 0 {
					t.ops += c.batch
				}
			}
		}
		boundary(-1, span, first)

		hwm[rk.ID] = rk.Port().UnexpectedHighWatermark()
		if rk.ID == 0 {
			t.issued = seq
		}
		return prog.close()
	}

	// The first failure wins; a clean finish is reported by Run itself.
	errc := make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		done <- world.Run(func(rk *spmd.Rank) (err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("panicked: %v\n%s", v, debug.Stack())
				}
				if err != nil {
					select {
					case errc <- fmt.Errorf("rank %d: %w", rk.ID, err):
					default:
					}
				}
			}()
			return body(rk)
		})
	}()
	timeout := time.NewTimer(trialTimeout)
	defer timeout.Stop()
	select {
	case err := <-errc:
		return nil, err
	case err := <-done:
		if err != nil {
			return nil, err
		}
	case <-timeout.C:
		// The stacks say which ranks are parked where; the world is
		// abandoned, as after any other failure.
		fmt.Fprintf(os.Stderr, "benchmark: %s: a rank is stuck; goroutines:\n", w.name)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		return nil, fmt.Errorf("no result after %v: a rank is stuck", trialTimeout)
	}

	bad := map[int]bool{}
	for r := range failed {
		for _, s := range failed[r] {
			bad[s] = true
		}
		if hwm[r] > t.hwm {
			t.hwm = hwm[r]
		}
	}
	t.failed = len(bad)
	return t, nil
}
