package mpi_test

import (
	"testing"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
	"commintent/internal/transport"
)

func run(t *testing.T, n int, body func(*spmd.Rank) error) {
	t.Helper()
	if err := spmd.Run(n, model.Uniform(100), body); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFloat64(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			return c.Send([]float64{1.5, 2.5, 3.5}, 3, mpi.Float64, 1, 7)
		}
		buf := make([]float64, 3)
		st, err := c.Recv(buf, 3, mpi.Float64, 0, 7)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
			t.Errorf("status = %+v", st)
		}
		if buf[0] != 1.5 || buf[1] != 2.5 || buf[2] != 3.5 {
			t.Errorf("payload = %v", buf)
		}
		return nil
	})
}

func TestRingNonBlocking(t *testing.T) {
	const n = 8
	run(t, n, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		prev := (rk.ID - 1 + n) % n
		next := (rk.ID + 1) % n
		out := []int64{int64(rk.ID)}
		in := make([]int64, 1)
		rr, err := c.Irecv(in, 1, mpi.Int64, prev, 0)
		if err != nil {
			return err
		}
		sr, err := c.Isend(out, 1, mpi.Int64, next, 0)
		if err != nil {
			return err
		}
		if _, err := c.Waitall([]*mpi.Request{rr, sr}); err != nil {
			return err
		}
		if in[0] != int64(prev) {
			t.Errorf("rank %d got %d from %d", rk.ID, in[0], prev)
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID != 0 {
			return c.Send([]int32{int32(rk.ID)}, 1, mpi.Int32, 0, rk.ID)
		}
		seen := map[int32]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]int32, 1)
			st, err := c.Recv(buf, 1, mpi.Int32, mpi.AnySource, mpi.AnyTag)
			if err != nil {
				return err
			}
			if st.Source != int(buf[0]) || st.Tag != int(buf[0]) {
				t.Errorf("status %+v does not match payload %d", st, buf[0])
			}
			seen[buf[0]] = true
		}
		if !seen[1] || !seen[2] {
			t.Errorf("missing senders: %v", seen)
		}
		return nil
	})
}

func TestMessageOrderingPerPair(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		const k = 20
		if rk.ID == 0 {
			for i := 0; i < k; i++ {
				if err := c.Send([]int64{int64(i)}, 1, mpi.Int64, 1, 5); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			buf := make([]int64, 1)
			if _, err := c.Recv(buf, 1, mpi.Int64, 0, 5); err != nil {
				return err
			}
			if buf[0] != int64(i) {
				t.Errorf("message %d arrived out of order: %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestSendrecvNoDeadlock(t *testing.T) {
	const n = 6
	run(t, n, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		next := (rk.ID + 1) % n
		prev := (rk.ID - 1 + n) % n
		out := []float64{float64(rk.ID)}
		in := make([]float64, 1)
		if _, err := c.Sendrecv(out, 1, mpi.Float64, next, 1, in, 1, mpi.Float64, prev, 1); err != nil {
			return err
		}
		if in[0] != float64(prev) {
			t.Errorf("rank %d: got %v want %d", rk.ID, in[0], prev)
		}
		return nil
	})
}

func TestTruncatedReceive(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			return c.Send([]int32{1, 2, 3, 4}, 4, mpi.Int32, 1, 0)
		}
		buf := make([]int32, 2)
		st, err := c.Recv(buf, 2, mpi.Int32, 0, 0)
		if err != nil {
			return err
		}
		if st.Count(mpi.Int32) != 2 {
			t.Errorf("count = %d", st.Count(mpi.Int32))
		}
		if buf[0] != 1 || buf[1] != 2 {
			t.Errorf("payload = %v", buf)
		}
		return nil
	})
}

func TestTagIsolationBetweenMessages(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			if err := c.Send([]int64{10}, 1, mpi.Int64, 1, 1); err != nil {
				return err
			}
			return c.Send([]int64{20}, 1, mpi.Int64, 1, 2)
		}
		// Receive in reverse tag order: tag 2 first.
		b2 := make([]int64, 1)
		if _, err := c.Recv(b2, 1, mpi.Int64, 0, 2); err != nil {
			return err
		}
		b1 := make([]int64, 1)
		if _, err := c.Recv(b1, 1, mpi.Int64, 0, 1); err != nil {
			return err
		}
		if b1[0] != 10 || b2[0] != 20 {
			t.Errorf("got %d,%d", b1[0], b2[0])
		}
		return nil
	})
}

func TestIprobe(t *testing.T) {
	run(t, 2, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			if err := c.Send([]int32{42}, 1, mpi.Int32, 1, 3); err != nil {
				return err
			}
			c.Barrier()
			return nil
		}
		c.Barrier() // ensure the message is queued and virtually arrived
		st, ok, err := c.Iprobe(0, 3)
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("Iprobe found nothing after barrier")
		}
		if st.Source != 0 || st.Tag != 3 || st.Bytes != 4 {
			t.Errorf("probe status %+v", st)
		}
		buf := make([]int32, 1)
		_, err = c.Recv(buf, 1, mpi.Int32, 0, 3)
		return err
	})
}

func TestVirtualTimeAdvancesOnRecv(t *testing.T) {
	if err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			return c.Send([]float64{1}, 1, mpi.Float64, 1, 0)
		}
		before := rk.Now()
		buf := make([]float64, 1)
		if _, err := c.Recv(buf, 1, mpi.Float64, 0, 0); err != nil {
			return err
		}
		after := rk.Now()
		p := rk.Profile()
		if after-before < p.MPILatency {
			t.Errorf("recv advanced clock by %v, want at least wire latency %v", after-before, p.MPILatency)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUnexpectedMessagePenalty(t *testing.T) {
	// Rank 1 posts its receive long after the message arrived (virtually):
	// the completion must include the unexpected-queue penalty.
	if err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			if err := c.Send([]float64{1}, 1, mpi.Float64, 1, 0); err != nil {
				return err
			}
			c.Barrier()
			return nil
		}
		c.Barrier() // message has certainly arrived, really and virtually
		rk.Compute(10 * model.Millisecond)
		buf := make([]float64, 1)
		req, err := c.Irecv(buf, 1, mpi.Float64, 0, 0)
		if err != nil {
			return err
		}
		if _, err := c.Wait(req); err != nil {
			return err
		}
		if !req.Unexpected() {
			t.Error("late-posted receive was not flagged unexpected")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUnexpectedOnWallClock: on the shared-memory transport with nothing
// attached that reads a wall stamp, the stamps are 0 and the flag comes
// from the match path. A receive posted after its send completed found the
// message queued; one posted before its send did not.
func TestUnexpectedOnWallClock(t *testing.T) {
	t.Setenv(transport.EnvVar, "shm")
	if err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			if err := c.Send([]float64{1}, 1, mpi.Float64, 1, 0); err != nil {
				return err
			}
			c.Barrier() // the first send has completed
			c.Barrier() // rank 1 has posted the second receive
			return c.Send([]float64{2}, 1, mpi.Float64, 1, 1)
		}
		c.Barrier()
		late, err := c.Irecv(make([]float64, 1), 1, mpi.Float64, 0, 0)
		if err != nil {
			return err
		}
		early, err := c.Irecv(make([]float64, 1), 1, mpi.Float64, 0, 1)
		if err != nil {
			return err
		}
		c.Barrier()
		if err := c.WaitallIgnore([]*mpi.Request{late, early}); err != nil {
			return err
		}
		if !late.Unexpected() {
			t.Error("receive posted after its send completed was not flagged unexpected")
		}
		if early.Unexpected() {
			t.Error("receive posted before its send was flagged unexpected")
		}
		if v := late.CompletionV() + early.CompletionV(); v != 0 {
			t.Errorf("completions stamped %d with nothing attached to read it, want 0", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommWorldSizeRank(t *testing.T) {
	run(t, 5, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if c.Size() != 5 || c.Rank() != rk.ID {
			t.Errorf("rank %d: comm says rank=%d size=%d", rk.ID, c.Rank(), c.Size())
		}
		if c.WorldRank(3) != 3 {
			t.Errorf("WorldRank(3) = %d", c.WorldRank(3))
		}
		return nil
	})
}
