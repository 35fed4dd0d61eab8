package spmd_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"commintent/internal/model"
	"commintent/internal/spmd"
)

func TestRunAllRanks(t *testing.T) {
	const n = 12
	var mu sync.Mutex
	seen := map[int]bool{}
	err := spmd.Run(n, model.Uniform(1), func(rk *spmd.Rank) error {
		if rk.N != n {
			t.Errorf("rank %d sees N=%d", rk.ID, rk.N)
		}
		mu.Lock()
		seen[rk.ID] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Errorf("only %d ranks ran", len(seen))
	}
}

func TestRunAggregatesErrors(t *testing.T) {
	err := spmd.Run(4, model.Uniform(1), func(rk *spmd.Rank) error {
		if rk.ID%2 == 1 {
			return fmt.Errorf("boom-%d", rk.ID)
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors swallowed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "boom-1") || !strings.Contains(msg, "boom-3") {
		t.Errorf("joined error missing parts: %v", msg)
	}
}

func TestPanicCaptured(t *testing.T) {
	err := spmd.Run(3, model.Uniform(1), func(rk *spmd.Rank) error {
		if rk.ID == 2 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	var pe *spmd.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %T: %v", err, err)
	}
	if pe.Rank != 2 || pe.Value != "kaboom" || pe.Stack == "" {
		t.Errorf("panic error = %+v", pe)
	}
}

func TestDeterministicPerRankRand(t *testing.T) {
	draw := func() map[int]float64 {
		var mu sync.Mutex
		out := map[int]float64{}
		if err := spmd.Run(4, model.Uniform(1), func(rk *spmd.Rank) error {
			v := rk.Rand().Float64()
			mu.Lock()
			out[rk.ID] = v
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	for r := 0; r < 4; r++ {
		if a[r] != b[r] {
			t.Errorf("rank %d PRNG not deterministic: %v vs %v", r, a[r], b[r])
		}
		for o := range a {
			if o != r && a[o] == a[r] {
				t.Errorf("ranks %d and %d drew the same value", o, r)
			}
		}
	}
}

// TestRandStreamPinned: a rank's PRNG is seeded on first use, from the
// rank id alone, so its stream is the same whether a body draws at once,
// late, or in a later Run of the same world. The first two values of three
// ranks are pinned.
func TestRandStreamPinned(t *testing.T) {
	want := map[int][2]int64{
		0: {7828158075477027098, 5950071357434416446},
		1: {3209185051482558585, 6289542567862173439},
		3: {2681727524249887407, 7151695045356185611},
	}
	w, err := spmd.NewWorld(4, model.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	for run := range 2 {
		var mu sync.Mutex
		got := map[int][2]int64{}
		if err := w.Run(func(rk *spmd.Rank) error {
			if run == 1 {
				rk.Compute(model.Microsecond) // draw late
			}
			a := rk.Rand().Int63()
			b := rk.Rand().Int63()
			mu.Lock()
			got[rk.ID] = [2]int64{a, b}
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for r, v := range want {
			if got[r] != v {
				t.Errorf("run %d rank %d: first values %v, want %v", run, r, got[r], v)
			}
		}
	}
}

func TestSharedReturnsOneValue(t *testing.T) {
	w, err := spmd.NewWorld(8, model.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	type box struct{ n int }
	var mu sync.Mutex
	ptrs := map[*box]bool{}
	err = w.Run(func(rk *spmd.Rank) error {
		b := rk.World().Shared("box", func() any { return &box{} }).(*box)
		mu.Lock()
		ptrs[b] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 1 {
		t.Errorf("Shared produced %d distinct values", len(ptrs))
	}
}

func TestComputeAdvancesClockAndMaxVirtualTime(t *testing.T) {
	w, err := spmd.NewWorld(3, model.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(rk *spmd.Rank) error {
		rk.Compute(model.Time(rk.ID) * model.Millisecond)
		if rk.Now() != model.Time(rk.ID)*model.Millisecond {
			t.Errorf("rank %d clock %v", rk.ID, rk.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxVirtualTime() != 2*model.Millisecond {
		t.Errorf("MaxVirtualTime = %v", w.MaxVirtualTime())
	}
}

func TestWorldReusableAcrossPhases(t *testing.T) {
	w, err := spmd.NewWorld(2, model.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	for phase := 1; phase <= 3; phase++ {
		phase := phase
		if err := w.Run(func(rk *spmd.Rank) error {
			rk.Compute(model.Microsecond)
			if rk.Now() != model.Time(phase)*model.Microsecond {
				t.Errorf("phase %d rank %d clock %v", phase, rk.ID, rk.Now())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := spmd.NewWorld(0, model.Uniform(1)); err == nil {
		t.Error("zero-size world accepted")
	}
	bad := model.GeminiLike()
	bad.MPIBandwidth = -1
	if err := spmd.Run(2, bad, func(rk *spmd.Rank) error { return nil }); err == nil {
		t.Error("invalid profile accepted")
	}
}
