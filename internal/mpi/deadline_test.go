package mpi_test

import (
	"errors"
	"testing"
	"time"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/transport"
)

// faultWorld builds a world whose fabric injects faults scoped to user
// point-to-point traffic, leaving collective control traffic lossless.
func faultWorld(t *testing.T, n int, prof *model.Profile, cfg simnet.FaultConfig) *spmd.World {
	t.Helper()
	w, err := spmd.NewWorld(n, prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
	w.Fabric().SetFaults(cfg)
	return w
}

// TestFaultErrorContracts pins the errors.Is relationships user code relies
// on: each FaultError unwraps to exactly its matching sentinel, and IsFault
// sees through wrapping.
func TestFaultErrorContracts(t *testing.T) {
	cases := []struct {
		kind      transport.FaultKind
		is, isNot error
	}{
		{transport.FaultDropped, mpi.ErrMessageLost, mpi.ErrDeadline},
		{transport.FaultPeerDead, mpi.ErrPeerDead, mpi.ErrMessageLost},
		{transport.FaultCancelled, mpi.ErrDeadline, mpi.ErrPeerDead},
	}
	for _, tc := range cases {
		e := &mpi.FaultError{Op: "recv", Peer: 3, Kind: tc.kind, Deadline: 1000}
		if !errors.Is(e, tc.is) {
			t.Errorf("FaultError{%v} should match %v", tc.kind, tc.is)
		}
		if errors.Is(e, tc.isNot) {
			t.Errorf("FaultError{%v} must not match %v", tc.kind, tc.isNot)
		}
		wrapped := errors.Join(errors.New("outer"), e)
		if !mpi.IsFault(wrapped) {
			t.Errorf("IsFault should see through wrapping of %v", tc.kind)
		}
		if e.Error() == "" {
			t.Errorf("empty Error() for %v", tc.kind)
		}
	}
	if mpi.IsFault(errors.New("plain")) {
		t.Error("IsFault(plain error) = true")
	}
}

// TestRecvDropTyped: with 100% drop, both sides of a transfer get a typed
// ErrMessageLost — the sender synchronously, the receiver via the ghost —
// and nobody hangs even without any deadline configured.
func TestRecvDropTyped(t *testing.T) {
	w := faultWorld(t, 2, model.Uniform(100), simnet.FaultConfig{Seed: 1, Drop: 1})
	err := w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			err := c.Send([]int64{42}, 1, mpi.Int64, 1, 7)
			if !errors.Is(err, mpi.ErrMessageLost) {
				t.Errorf("sender: err = %v, want ErrMessageLost", err)
			}
			return nil
		}
		buf := make([]int64, 1)
		_, err := c.Recv(buf, 1, mpi.Int64, 0, 7)
		if !errors.Is(err, mpi.ErrMessageLost) {
			t.Errorf("receiver: err = %v, want ErrMessageLost", err)
		}
		var fe *mpi.FaultError
		if !errors.As(err, &fe) || fe.Op != "recv" || fe.Peer != 0 {
			t.Errorf("receiver: FaultError = %+v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadRankTyped: traffic to or from a dead rank fails with ErrPeerDead
// on the live side; traffic between live ranks is untouched.
func TestDeadRankTyped(t *testing.T) {
	w := faultWorld(t, 4, model.Uniform(100), simnet.FaultConfig{
		Seed: 2, DeadRanks: map[int]bool{3: true},
	})
	err := w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		switch rk.ID {
		case 0: // live → dead
			if err := c.Send([]int64{1}, 1, mpi.Int64, 3, 0); !errors.Is(err, mpi.ErrPeerDead) {
				t.Errorf("send to dead rank: err = %v", err)
			}
		case 1: // live ← dead, plus a healthy exchange with rank 2
			buf := make([]int64, 1)
			if _, err := c.Recv(buf, 1, mpi.Int64, 3, 0); !errors.Is(err, mpi.ErrPeerDead) {
				t.Errorf("recv from dead rank: err = %v", err)
			}
			if _, err := c.Recv(buf, 1, mpi.Int64, 2, 1); err != nil {
				t.Errorf("healthy recv: %v", err)
			} else if buf[0] != 99 {
				t.Errorf("healthy payload = %d", buf[0])
			}
		case 2: // healthy sender
			if err := c.Send([]int64{99}, 1, mpi.Int64, 1, 1); err != nil {
				t.Errorf("healthy send: %v", err)
			}
		case 3: // the dead rank's own sends also fail typed
			if err := c.Send([]int64{1}, 1, mpi.Int64, 1, 0); !errors.Is(err, mpi.ErrPeerDead) {
				t.Errorf("dead rank send: err = %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutNeverSent: a receive whose message is never sent — the one
// case no ghost can resolve — trips the real-time watchdog and fails with
// ErrDeadline, with the clock charged exactly to the virtual deadline. This
// works on a perfectly healthy fabric: no injector is involved.
func TestRecvTimeoutNeverSent(t *testing.T) {
	err := spmd.Run(2, model.Uniform(100), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID != 0 {
			return nil // never sends
		}
		c.SetWatchdog(50 * time.Millisecond)
		start := rk.Clock().Now()
		const timeout = 5000
		buf := make([]int64, 1)
		_, err := c.RecvTimeout(buf, 1, mpi.Int64, 1, 0, timeout)
		if !errors.Is(err, mpi.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		var fe *mpi.FaultError
		if !errors.As(err, &fe) || fe.Kind != transport.FaultCancelled || fe.Deadline != start+timeout {
			t.Errorf("FaultError = %+v", fe)
		}
		if got := rk.Clock().Now(); got != start+timeout {
			t.Errorf("clock = %d, want deadline %d", got, start+timeout)
		}
		if got := rk.Endpoint().PendingPosted(); got != 0 {
			t.Errorf("posted receives leaked: %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousSendDeadline: a rendezvous send whose receive is never
// posted is withdrawn by the watchdog and fails ErrDeadline; the unmatched
// message must not linger in the peer's unexpected queue.
func TestRendezvousSendDeadline(t *testing.T) {
	err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID != 0 {
			return nil // never posts the receive
		}
		c.SetWatchdog(50 * time.Millisecond)
		c.SetDefaultTimeout(100_000)
		big := make([]float64, 1024) // 8 KiB > GeminiLike's 4 KiB eager threshold
		err := c.Send(big, len(big), mpi.Float64, 1, 0)
		if !errors.Is(err, mpi.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		if got := rk.World().Fabric().Endpoint(1).PendingUnexpected(); got != 0 {
			t.Errorf("withdrawn rendezvous message still queued: %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommDefaultTimeout: SetDefaultTimeout makes plain Recv deadline-aware
// and is inherited across Split.
func TestCommDefaultTimeout(t *testing.T) {
	err := spmd.Run(2, model.Uniform(100), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		c.SetWatchdog(50 * time.Millisecond)
		c.SetDefaultTimeout(3000)
		sub, err := c.Split(0, rk.ID)
		if err != nil {
			return err
		}
		if rk.ID != 0 {
			return nil
		}
		buf := make([]int64, 1)
		if _, err := sub.Recv(buf, 1, mpi.Int64, 1, 0); !errors.Is(err, mpi.ErrDeadline) {
			t.Errorf("split comm Recv: err = %v, want inherited ErrDeadline", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ringTimes runs a nonblocking ring exchange and returns the world's final
// max virtual time; useTimeout selects WaitallTimeout over plain Waitall.
func ringTimes(t *testing.T, useTimeout bool, inject bool) model.Time {
	t.Helper()
	const n = 8
	w, err := spmd.NewWorld(n, model.Uniform(100))
	if err != nil {
		t.Fatal(err)
	}
	if inject {
		// A zero-rate injector: every message goes through the sequencing
		// machinery but nothing is faulted.
		cfg := simnet.FaultConfig{Seed: 7}
		cfg.TagSpan, cfg.UserSpan = mpi.P2PFaultScope()
		w.Fabric().SetFaults(cfg)
	}
	err = w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		for iter := 0; iter < 5; iter++ {
			out := []int64{int64(rk.ID + iter)}
			in := make([]int64, 1)
			rr, err := c.Irecv(in, 1, mpi.Int64, (rk.ID+n-1)%n, 0)
			if err != nil {
				return err
			}
			sr, err := c.Isend(out, 1, mpi.Int64, (rk.ID+1)%n, 0)
			if err != nil {
				return err
			}
			reqs := []*mpi.Request{rr, sr}
			if useTimeout {
				errs, err := c.WaitallTimeout(reqs, 1_000_000)
				if err != nil || errs != nil {
					t.Errorf("WaitallTimeout: %v %v", errs, err)
				}
			} else {
				if _, err := c.Waitall(reqs); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxVirtualTime()
}

// TestDeadlinePurity pins the zero-fault invariants: deadline-aware waits
// and a zero-rate injector must not move virtual time by a single tick
// relative to the plain healthy path.
func TestDeadlinePurity(t *testing.T) {
	base := ringTimes(t, false, false)
	if got := ringTimes(t, true, false); got != base {
		t.Errorf("WaitallTimeout virtual time %d != Waitall %d", got, base)
	}
	if got := ringTimes(t, false, true); got != base {
		t.Errorf("zero-rate injector virtual time %d != healthy %d", got, base)
	}
	if got := ringTimes(t, true, true); got != base {
		t.Errorf("timeout+injector virtual time %d != healthy %d", got, base)
	}
}
