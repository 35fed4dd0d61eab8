package shmem_test

import (
	"testing"

	"commintent/internal/model"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
)

func run(t *testing.T, n int, body func(*spmd.Rank) error) {
	t.Helper()
	if err := spmd.Run(n, model.Uniform(100), body); err != nil {
		t.Fatal(err)
	}
}

func TestPutBarrierVisibility(t *testing.T) {
	const n = 4
	run(t, n, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		arr := shmem.MustAlloc[float64](ctx, n)
		// Ring put: each PE writes its id into slot [me] of the next PE.
		next := (rk.ID + 1) % n
		if err := arr.Put(ctx, next, []float64{float64(rk.ID)}, rk.ID); err != nil {
			return err
		}
		ctx.BarrierAll()
		local := arr.Local(ctx)
		prev := (rk.ID - 1 + n) % n
		if local[prev] != float64(prev) {
			t.Errorf("PE %d: slot %d = %v", rk.ID, prev, local[prev])
		}
		return nil
	})
}

func TestWaitUntilFlag(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		data := shmem.MustAlloc[float64](ctx, 8)
		flag := shmem.MustAlloc[int64](ctx, 1)
		if rk.ID == 0 {
			payload := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			if err := data.Put(ctx, 1, payload, 0); err != nil {
				return err
			}
			ctx.Quiet()
			return flag.P(ctx, 1, 0, 1)
		}
		if err := flag.WaitUntil(ctx, 0, shmem.CmpGE, 1); err != nil {
			return err
		}
		local := data.Local(ctx)
		for i, v := range local {
			if v != float64(i+1) {
				t.Errorf("data[%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestGetRoundTrip(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		arr := shmem.MustAlloc[int64](ctx, 4)
		local := arr.Local(ctx)
		for i := range local {
			local[i] = int64(rk.ID*100 + i)
		}
		ctx.BarrierAll()
		other := 1 - rk.ID
		got := make([]int64, 4)
		if err := arr.Get(ctx, other, got, 0); err != nil {
			return err
		}
		for i := range got {
			if got[i] != int64(other*100+i) {
				t.Errorf("got[%d] = %d", i, got[i])
			}
		}
		ctx.BarrierAll()
		return nil
	})
}

func TestQuietAdvancesToArrival(t *testing.T) {
	if err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		arr := shmem.MustAlloc[float64](ctx, 1024)
		if rk.ID == 0 {
			big := make([]float64, 1024)
			before := rk.Now()
			if err := arr.Put(ctx, 1, big, 0); err != nil {
				return err
			}
			afterPut := rk.Now()
			ctx.Quiet()
			afterQuiet := rk.Now()
			p := rk.Profile()
			wire := p.ShmemWireTime(1024 * 8)
			if afterPut-before >= wire {
				t.Errorf("put charged wire time locally: %v", afterPut-before)
			}
			if afterQuiet-before < wire {
				t.Errorf("quiet did not wait for remote completion: %v < %v", afterQuiet-before, wire)
			}
		}
		ctx.BarrierAll()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAsymmetricAllocationRejected(t *testing.T) {
	err := spmd.Run(2, model.Uniform(1), func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		size := 4
		if rk.ID == 1 {
			size = 8
		}
		_, err := shmem.Alloc[float64](ctx, size)
		return err
	})
	if err == nil {
		t.Fatal("asymmetric allocation not rejected")
	}
}

func TestAsymmetricTypeRejected(t *testing.T) {
	err := spmd.Run(2, model.Uniform(1), func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		if rk.ID == 0 {
			_, err := shmem.Alloc[float64](ctx, 4)
			return err
		}
		_, err := shmem.Alloc[int64](ctx, 4)
		return err
	})
	if err == nil {
		t.Fatal("asymmetric element type not rejected")
	}
}

func TestPutBoundsChecked(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		arr := shmem.MustAlloc[float64](ctx, 2)
		if rk.ID == 0 {
			if err := arr.Put(ctx, 1, []float64{1, 2, 3}, 0); err == nil {
				t.Error("overflowing put accepted")
			}
			if err := arr.Put(ctx, 5, []float64{1}, 0); err == nil {
				t.Error("out-of-range PE accepted")
			}
		}
		ctx.BarrierAll()
		return nil
	})
}

func TestTeamBarrier(t *testing.T) {
	const n = 6
	run(t, n, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		arr := shmem.MustAlloc[int64](ctx, 1)
		team := []int{0, 2, 4}
		if rk.ID%2 == 0 {
			// Even team: 0 puts to 2 and 4, then team barrier, they read.
			if rk.ID == 0 {
				if err := arr.P(ctx, 2, 0, 7); err != nil {
					return err
				}
				if err := arr.P(ctx, 4, 0, 7); err != nil {
					return err
				}
			}
			if err := ctx.TeamBarrier(team); err != nil {
				return err
			}
			if rk.ID != 0 && arr.Local(ctx)[0] != 7 {
				t.Errorf("PE %d: value %d after team barrier", rk.ID, arr.Local(ctx)[0])
			}
		}
		ctx.BarrierAll()
		return nil
	})
}

func TestTeamBarrierValidation(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		if rk.ID == 0 {
			if err := ctx.TeamBarrier([]int{1}); err == nil {
				t.Error("team barrier without caller accepted")
			}
			if err := ctx.TeamBarrier([]int{0, 99}); err == nil {
				t.Error("team barrier with bogus PE accepted")
			}
		}
		return nil
	})
}

func TestBarrierAllImpliesQuiet(t *testing.T) {
	if err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		arr := shmem.MustAlloc[float64](ctx, 4096)
		if rk.ID == 0 {
			big := make([]float64, 4096)
			if err := arr.Put(ctx, 1, big, 0); err != nil {
				return err
			}
		}
		before := rk.Now()
		ctx.BarrierAll()
		after := rk.Now()
		wire := rk.Profile().ShmemWireTime(4096 * 8)
		// Both ranks leave the barrier no earlier than the put's arrival.
		if after < before || after < wire {
			t.Errorf("barrier exit %v precedes put arrival %v", after, wire)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCmpOperators(t *testing.T) {
	cases := []struct {
		c    shmem.Cmp
		v, w int64
		want bool
	}{
		{shmem.CmpEQ, 3, 3, true}, {shmem.CmpEQ, 3, 4, false},
		{shmem.CmpNE, 3, 4, true}, {shmem.CmpNE, 3, 3, false},
		{shmem.CmpGT, 4, 3, true}, {shmem.CmpGT, 3, 3, false},
		{shmem.CmpGE, 3, 3, true}, {shmem.CmpGE, 2, 3, false},
		{shmem.CmpLT, 2, 3, true}, {shmem.CmpLT, 3, 3, false},
		{shmem.CmpLE, 3, 3, true}, {shmem.CmpLE, 4, 3, false},
	}
	run(t, 2, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		flag := shmem.MustAlloc[int64](ctx, len(cases))
		if rk.ID == 0 {
			for i, tc := range cases {
				if err := flag.P(ctx, 1, i, tc.v); err != nil {
					return err
				}
			}
			ctx.BarrierAll()
			return nil
		}
		ctx.BarrierAll()
		for i, tc := range cases {
			if tc.want {
				if err := flag.WaitUntil(ctx, i, tc.c, tc.w); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// TestWaitUntilDatedBySatisfyingWrite: a wait advances to the arrival of the
// write that satisfied it, not to whatever has landed on the PE by the time
// the host runs the waiter. A writer that has run two flag values ahead and a
// bystander's late put into another element are both already there when the
// waits start; neither may leak into the first wait's completion time.
func TestWaitUntilDatedBySatisfyingWrite(t *testing.T) {
	const gap = 50_000
	landed := make(chan struct{}, 2)
	run(t, 3, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		flag := shmem.MustAlloc[int64](ctx, 2)
		switch rk.ID {
		case 0:
			if err := flag.P(ctx, 2, 0, 1); err != nil {
				return err
			}
			rk.Clock().Advance(gap)
			if err := flag.P(ctx, 2, 0, 2); err != nil {
				return err
			}
			landed <- struct{}{}
		case 1:
			rk.Clock().Advance(10 * gap)
			if err := flag.P(ctx, 2, 1, 7); err != nil {
				return err
			}
			landed <- struct{}{}
		case 2:
			<-landed
			<-landed
			t0 := rk.Clock().Now()
			if err := flag.WaitUntil(ctx, 0, shmem.CmpGE, 1); err != nil {
				return err
			}
			v1 := rk.Clock().Now()
			if err := flag.WaitUntil(ctx, 0, shmem.CmpGE, 2); err != nil {
				return err
			}
			v2 := rk.Clock().Now()
			if err := flag.WaitUntil(ctx, 0, shmem.CmpGE, 2); err != nil {
				return err
			}
			v3 := rk.Clock().Now()
			if v1 >= t0+gap {
				t.Errorf("first wait ended at %v: it was charged a later write's arrival (started %v)", v1, t0)
			}
			if d := v2 - v1; d < gap/2 || d > 2*gap {
				t.Errorf("second wait ended %v after the first, want about the writer's %v gap", d, model.Time(gap))
			}
			if v3 >= v2+gap {
				t.Errorf("a wait already satisfied by an accounted-for write moved the clock %v", v3-v2)
			}
		}
		return nil
	})
}

// TestWaitUntilNeverEarly: a wait may not return before the write it saw has
// arrived, also when the signal log cannot name that write — it came inside a
// multi-element Put (data and flag in one message), or the log has forgotten
// it under a flood of element-wise puts nobody waits for.
func TestWaitUntilNeverEarly(t *testing.T) {
	const late = 5_000
	for _, tc := range []struct {
		name  string
		write func(ctx *shmem.Ctx, s *shmem.Slice[int64]) error
	}{
		{"multi-element put", func(ctx *shmem.Ctx, s *shmem.Slice[int64]) error {
			return s.Put(ctx, 1, []int64{7, 7, 7, 1}, 0)
		}},
		{"forgotten signal", func(ctx *shmem.Ctx, s *shmem.Slice[int64]) error {
			if err := s.P(ctx, 1, 3, 1); err != nil {
				return err
			}
			for i := 0; i < 1000; i++ {
				if err := s.P(ctx, 1, i%3, 7); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arrived := make(chan model.Time, 1)
			run(t, 2, func(rk *spmd.Rank) error {
				ctx := shmem.New(rk)
				s := shmem.MustAlloc[int64](ctx, 4)
				if rk.ID == 0 {
					rk.Clock().Advance(late)
					if err := tc.write(ctx, s); err != nil {
						return err
					}
					ctx.Quiet()
					arrived <- rk.Clock().Now()
					return nil
				}
				sent := <-arrived
				if err := s.WaitUntil(ctx, 3, shmem.CmpGE, 1); err != nil {
					return err
				}
				if now := rk.Clock().Now(); now < late {
					t.Errorf("wait returned at %v, before the writer (at %v when it wrote, %v once every put had arrived) could have delivered", now, model.Time(late), sent)
				}
				return nil
			})
		})
	}
}
