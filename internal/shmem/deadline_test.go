package shmem_test

import (
	"errors"
	"testing"
	"time"

	"commintent/internal/shmem"
	"commintent/internal/spmd"
	"commintent/internal/transport"
)

// TestWaitUntilTimeoutNeverSignalled: a wait_until whose signal never comes
// fails with transport.ErrDeadline at the virtual deadline instead of hanging.
func TestWaitUntilTimeoutNeverSignalled(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		flag := shmem.MustAlloc[int64](ctx, 1)
		if rk.ID != 0 {
			ctx.BarrierAll() // match the trailing barrier below
			return nil       // never signals
		}
		ctx.SetWatchdog(50 * time.Millisecond)
		start := rk.Clock().Now()
		const timeout = 7000
		err := flag.WaitUntilTimeout(ctx, 0, shmem.CmpGE, 1, timeout)
		if !errors.Is(err, transport.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		if got := rk.Clock().Now(); got != start+timeout {
			t.Errorf("clock = %d, want deadline %d", got, start+timeout)
		}
		ctx.BarrierAll()
		return nil
	})
}

// TestWaitUntilTimeoutSignalled: when the signal does arrive, the timeout
// variant behaves exactly like WaitUntil — same result, same virtual time.
func TestWaitUntilTimeoutSignalled(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		ctx := shmem.New(rk)
		flag := shmem.MustAlloc[int64](ctx, 2)
		if rk.ID == 1 {
			if err := flag.P(ctx, 0, 0, 5); err != nil {
				return err
			}
			return flag.P(ctx, 0, 1, 5)
		}
		if err := flag.WaitUntilTimeout(ctx, 0, shmem.CmpGE, 5, 1_000_000); err != nil {
			t.Errorf("WaitUntilTimeout: %v", err)
		}
		v1 := rk.Clock().Now()
		if err := flag.WaitUntil(ctx, 1, shmem.CmpGE, 5); err != nil {
			t.Errorf("WaitUntil: %v", err)
		}
		if flag.Local(ctx)[0] != 5 || flag.Local(ctx)[1] != 5 {
			t.Errorf("payload = %v", flag.Local(ctx))
		}
		_ = v1
		return nil
	})
}
