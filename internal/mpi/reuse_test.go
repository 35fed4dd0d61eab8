package mpi_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

// mpi.Request is 176 B, exactly a Go allocator size class: one more word —
// or one bool outside the padding beside isSend/rendezvous — makes every
// new(Request) a 192 B object, +8% on whatever still allocates them.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(mpi.Request{}); got > 176 {
		t.Errorf("unsafe.Sizeof(mpi.Request{}) = %d, want <= 176", got)
	}
}

// ringRun is what one run of the ring-exchange program leaves behind.
type ringRun struct {
	landed *equivStore  // every round's received buffers, per rank
	finalV []model.Time // per-rank clock at the end
	events []string     // the fabric's event multiset, sorted
}

// ringExchange runs rounds of a ring exchange — per round an eager float64
// edge, a rendezvous-sized int32 block and a byte string, receives posted
// first, one Waitall — on n ranks of the named transport. With reuse every
// rank starts all rounds' operations in the same six requests through
// IsendInto/IrecvInto and completes them with statuses ignored; without, it
// takes fresh requests from Isend/Irecv and a status array from Waitall.
// Clock values enter the event strings only on simnet, where time is
// modelled (the shm transport runs on the wall clock).
func ringExchange(t *testing.T, kind string, n, rounds int, reuse bool) ringRun {
	t.Helper()
	timed := kind == "simnet"
	t.Setenv(transport.EnvVar, kind)
	w, err := spmd.NewWorld(n, model.GeminiLike())
	if err != nil {
		t.Fatal(err)
	}
	run := ringRun{landed: newEquivStore(), finalV: make([]model.Time, n)}
	var mu sync.Mutex
	w.Fabric().Observe(func(ev simnet.Event) {
		s := fmt.Sprintf("r%d %v peer=%d tag=%d bytes=%d", ev.Rank, ev.Kind, ev.Peer, ev.Tag, ev.Bytes)
		if timed {
			s += fmt.Sprintf(" v=%d idle=%d", ev.V, ev.Idle)
		}
		mu.Lock()
		run.events = append(run.events, s)
		mu.Unlock()
	})
	err = w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		me := rk.ID
		right, left := (me+1)%n, (me+n-1)%n
		const nf, ni, nb = 32, 2048, 100
		store := make([]mpi.Request, 6)
		reqs := make([]*mpi.Request, 6)
		for i := range store {
			reqs[i] = &store[i]
		}
		for round := 0; round < rounds; round++ {
			rng := rand.New(rand.NewSource(int64(me*1000 + round)))
			of, oi, ob := make([]float64, nf), make([]int32, ni), make([]byte, nb)
			for i := range of {
				of[i] = rng.NormFloat64()
			}
			for i := range oi {
				oi[i] = int32(rng.Int())
			}
			rng.Read(ob)
			inf, ini, inb := make([]float64, nf), make([]int32, ni), make([]byte, nb)
			type op struct {
				send  bool
				buf   any
				count int
				dt    *mpi.Datatype
				peer  int
				tag   int
			}
			ops := []op{
				{false, inf, nf, mpi.Float64, left, 1}, {false, ini, ni, mpi.Int32, left, 2}, {false, inb, nb, mpi.Byte, left, 3},
				{true, of, nf, mpi.Float64, right, 1}, {true, oi, ni, mpi.Int32, right, 2}, {true, ob, nb, mpi.Byte, right, 3},
			}
			for i, o := range ops {
				var err error
				switch {
				case reuse && o.send:
					err = c.IsendInto(reqs[i], o.buf, o.count, o.dt, o.peer, o.tag)
				case reuse:
					err = c.IrecvInto(reqs[i], o.buf, o.count, o.dt, o.peer, o.tag)
				case o.send:
					reqs[i], err = c.Isend(o.buf, o.count, o.dt, o.peer, o.tag)
				default:
					reqs[i], err = c.Irecv(o.buf, o.count, o.dt, o.peer, o.tag)
				}
				if err != nil {
					return fmt.Errorf("rank %d round %d op %d: %w", me, round, i, err)
				}
			}
			var err error
			if reuse {
				err = c.WaitallIgnore(reqs)
			} else {
				_, err = c.Waitall(reqs)
			}
			if err != nil {
				return err
			}
			for i, o := range ops[:3] {
				if st := reqs[i].Status(); st.Source != left || st.Tag != o.tag || st.Count(o.dt) != o.count {
					return fmt.Errorf("rank %d round %d op %d: status %+v", me, round, i, st)
				}
			}
			run.landed.put(me, fmt.Sprintf("round%d/f64", round), inf)
			run.landed.put(me, fmt.Sprintf("round%d/i32", round), ini)
			run.landed.put(me, fmt.Sprintf("round%d/byte", round), inb)
		}
		run.finalV[me] = rk.Now()
		return nil
	})
	if err != nil {
		t.Fatalf("%s reuse=%v: %v", kind, reuse, err)
	}
	sort.Strings(run.events)
	return run
}

// TestRequestReuseEquiv: k rounds of a ring exchange through requests that
// are started again every round land the same bytes and emit the same event
// multiset as k rounds through fresh Isend/Irecv requests, on both
// transports at one and at four Ps — and on simnet, where time is modelled,
// read the same clock on every rank at every event.
func TestRequestReuseEquiv(t *testing.T) {
	const n, rounds = 8, 6
	for _, kind := range []string{"simnet", "shm"} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", kind, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				fresh := ringExchange(t, kind, n, rounds, false)
				reused := ringExchange(t, kind, n, rounds, true)
				if bad := fresh.landed.diff(reused.landed); len(bad) != 0 {
					t.Errorf("landed bytes differ at: %v", bad)
				}
				if len(fresh.landed.data) != 3*n*rounds {
					t.Errorf("recorded %d buffers, want %d", len(fresh.landed.data), 3*n*rounds)
				}
				if !reflect.DeepEqual(fresh.events, reused.events) {
					t.Errorf("event multisets differ: %d events fresh, %d reused", len(fresh.events), len(reused.events))
				}
				if kind == "simnet" && !reflect.DeepEqual(fresh.finalV, reused.finalV) {
					t.Errorf("final virtual times differ:\nfresh  %v\nreused %v", fresh.finalV, reused.finalV)
				}
			})
		}
	}
}

// TestStartActiveRequest: starting an operation in a request whose previous
// one has not been completed is refused with ErrRequestActive — for a posted
// receive, an unmatched rendezvous send, and an eager send nobody waited for
// — and the refused start leaves that operation completable.
func TestStartActiveRequest(t *testing.T) {
	const big = 4096 // float64s: above the eager threshold
	err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		var r, s mpi.Request
		if rk.ID == 0 {
			in, other := make([]float64, 4), make([]float64, 4)
			if err := c.IrecvInto(&r, in, 4, mpi.Float64, 1, 5); err != nil {
				return err
			}
			if err := c.IrecvInto(&r, other, 4, mpi.Float64, 1, 6); !errors.Is(err, mpi.ErrRequestActive) {
				return fmt.Errorf("second IrecvInto on a posted receive: %v, want ErrRequestActive", err)
			}
			if err := c.IsendInto(&r, other, 4, mpi.Float64, 1, 6); !errors.Is(err, mpi.ErrRequestActive) {
				return fmt.Errorf("IsendInto on a posted receive: %v, want ErrRequestActive", err)
			}
			c.Barrier()
			st, err := c.Wait(&r)
			if err != nil {
				return err
			}
			if st.Source != 1 || st.Tag != 5 || in[3] != 13 || other[3] != 0 {
				return fmt.Errorf("refused start disturbed the receive: status %+v in %v other %v", st, in, other)
			}
			// Completed: the same storage takes the next operation.
			if err := c.IrecvInto(&r, other, 4, mpi.Float64, 1, 6); err != nil {
				return fmt.Errorf("restart of a completed request: %w", err)
			}
			if _, err := c.Wait(&r); err != nil {
				return err
			}
			if other[3] != 23 {
				return fmt.Errorf("restarted receive landed %v", other)
			}
			rend := make([]float64, big)
			_, err = c.Recv(rend, big, mpi.Float64, 1, 7)
			return err
		}
		c.Barrier()
		if err := c.IsendInto(&s, []float64{10, 11, 12, 13}, 4, mpi.Float64, 0, 5); err != nil {
			return err
		}
		if err := c.IsendInto(&s, []float64{0, 0, 0, 0}, 4, mpi.Float64, 0, 5); !errors.Is(err, mpi.ErrRequestActive) {
			return fmt.Errorf("IsendInto on an eager send not yet waited for: %v, want ErrRequestActive", err)
		}
		if _, err := c.Wait(&s); err != nil {
			return err
		}
		if err := c.IsendInto(&s, []float64{20, 21, 22, 23}, 4, mpi.Float64, 0, 6); err != nil {
			return err
		}
		if _, err := c.Wait(&s); err != nil {
			return err
		}
		if err := c.IsendInto(&s, make([]float64, big), big, mpi.Float64, 0, 7); err != nil {
			return err
		}
		if err := c.IsendInto(&s, make([]float64, big), big, mpi.Float64, 0, 7); !errors.Is(err, mpi.ErrRequestActive) {
			return fmt.Errorf("IsendInto on an unmatched rendezvous send: %v, want ErrRequestActive", err)
		}
		_, err := c.Wait(&s)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReusedRequestCarriesNothingOver: a request goes through a round that
// leaves every piece of completion state set — an unexpected message claimed
// by Waitany — then a round that faults it (a receive nothing is sent for,
// cancelled at its deadline: sticky error, Source -1), then a clean round
// whose message arrives after the receive is posted. The last round must see
// none of it: Waitany hands the request out again, no error, the new
// message's status, not unexpected.
func TestReusedRequestCarriesNothingOver(t *testing.T) {
	err := spmd.Run(2, model.Uniform(100), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		c.SetWatchdog(20 * time.Millisecond)
		if rk.ID == 0 {
			if err := c.Send([]int64{41}, 1, mpi.Int64, 1, 3); err != nil {
				return err
			}
			c.Barrier() // round 1 sent before round 1's receive is posted
			c.Barrier() // round 3's receive is posted
			rk.Compute(1_000_000)
			return c.Send([]int64{43, 44}, 2, mpi.Int64, 1, 4)
		}
		var r mpi.Request
		reqs := []*mpi.Request{&r}
		in := make([]int64, 2)

		c.Barrier()
		rk.Compute(1_000_000) // the message has long arrived, in virtual time too
		if err := c.IrecvInto(&r, in, 2, mpi.Int64, 0, 3); err != nil {
			return err
		}
		if i, st, err := c.Waitany(reqs); err != nil || i != 0 || st.Bytes != 8 || !r.Unexpected() {
			return fmt.Errorf("round 1: Waitany = %d %+v %v, unexpected %v", i, st, err, r.Unexpected())
		}
		if i, _, err := c.Waitany(reqs); err == nil {
			return fmt.Errorf("round 1: Waitany handed a claimed request out again (index %d)", i)
		}

		if err := c.IrecvInto(&r, in, 2, mpi.Int64, 0, 9); err != nil {
			return err
		}
		if _, err := c.WaitTimeout(&r, 1000); !errors.Is(err, mpi.ErrDeadline) {
			return fmt.Errorf("round 2: %v, want ErrDeadline", err)
		}
		if _, err := c.Wait(&r); !errors.Is(err, mpi.ErrDeadline) {
			return fmt.Errorf("round 2: the fault is not sticky: %v", err)
		}
		if st := r.Status(); st.Source != -1 {
			return fmt.Errorf("round 2: status %+v", st)
		}

		if err := c.IrecvInto(&r, in, 2, mpi.Int64, 0, 4); err != nil {
			return fmt.Errorf("round 3: a request completed with a fault is inactive: %w", err)
		}
		c.Barrier()
		i, st, err := c.Waitany(reqs)
		if err != nil || i != 0 {
			return fmt.Errorf("round 3: Waitany = %d, %v", i, err)
		}
		if st != (mpi.Status{Source: 0, Tag: 4, Bytes: 16}) || r.Status() != st || r.Unexpected() {
			return fmt.Errorf("round 3: status %+v, unexpected %v", st, r.Unexpected())
		}
		if in[0] != 43 || in[1] != 44 {
			return fmt.Errorf("round 3: landed %v", in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// inPlaceHere reports whether this build receives a []float64 in place:
// not under `purego`, not on a big-endian host.
func inPlaceHere() bool {
	_, _, native := typemap.WireView([]float64{0})
	return native
}

// poolTraffic reports how many GetBuf calls body's world made.
func poolTraffic(t *testing.T, body func(*spmd.Rank) error) int64 {
	t.Helper()
	h0, m0 := transport.PoolStats()
	if err := spmd.Run(2, model.GeminiLike(), body); err != nil {
		t.Fatal(err)
	}
	h1, m1 := transport.PoolStats()
	return h1 + m1 - h0 - m0
}

// TestBlockingRecvStillStages: Recv, RecvTimeout and Sendrecv launder their
// buffer so that it may stay on the caller's stack, and a pooled receive
// handle must not point at such storage — so they keep the staging buffer,
// one GetBuf beside the sender's for every message, where Irecv takes none
// (and, under `purego`, the same one).
func TestBlockingRecvStillStages(t *testing.T) {
	const msgs = 10
	blocking := poolTraffic(t, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		peer := 1 - rk.ID
		var in, out [4]float64 // never escapes: the blocking calls launder it
		for i := 0; i < msgs; i++ {
			out[0] = float64(rk.ID*100 + i)
			var err error
			switch {
			case i%3 == 2:
				_, err = c.Sendrecv(out[:], 4, mpi.Float64, peer, 1, in[:], 4, mpi.Float64, peer, 1)
			case rk.ID == 0:
				err = c.Send(out[:], 4, mpi.Float64, 1, 1)
			case i%3 == 1:
				_, err = c.RecvTimeout(in[:], 4, mpi.Float64, 0, 1, 1<<40)
			default:
				_, err = c.Recv(in[:], 4, mpi.Float64, 0, 1)
			}
			if err != nil {
				return err
			}
			if rk.ID == 1 && in[0] != float64(i) {
				return fmt.Errorf("message %d landed %v", i, in[0])
			}
		}
		return nil
	})
	// Rank 0 sends msgs messages and rank 1 sends one per Sendrecv round;
	// every one is staged on both sides.
	const sent = msgs + msgs/3
	if blocking != 2*sent {
		t.Errorf("blocking receives: %d pool buffers taken for %d messages, want %d", blocking, sent, 2*sent)
	}

	nonblocking := poolTraffic(t, func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		in, out := make([]float64, 4), make([]float64, 4)
		for i := 0; i < msgs; i++ {
			if rk.ID == 0 {
				out[0] = float64(i)
				if err := c.Send(out, 4, mpi.Float64, 1, 1); err != nil {
					return err
				}
				continue
			}
			r, err := c.Irecv(in, 4, mpi.Float64, 0, 1)
			if err != nil {
				return err
			}
			if _, err := c.Wait(r); err != nil {
				return err
			}
			if in[0] != float64(i) {
				return fmt.Errorf("message %d landed %v", i, in[0])
			}
		}
		return nil
	})
	want := int64(msgs)
	if !inPlaceHere() {
		want = 2 * msgs
	}
	if nonblocking != want {
		t.Errorf("Irecv: %d pool buffers taken for %d messages, want %d", nonblocking, msgs, want)
	}
}

// TestShortMessageLeavesTail: a receive posted for 8 elements and matched by
// a 3-element message reports the 3 and does not touch the other 5, in place
// or staged.
func TestShortMessageLeavesTail(t *testing.T) {
	err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			return c.Send([]float64{1, 2, 3}, 3, mpi.Float64, 1, 2)
		}
		in := []float64{-1, -1, -1, -1, -1, -1, -1, -1}
		r, err := c.Irecv(in, 8, mpi.Float64, 0, 2)
		if err != nil {
			return err
		}
		st, err := c.Wait(r)
		if err != nil {
			return err
		}
		if st.Bytes != 24 || st.Count(mpi.Float64) != 3 {
			return fmt.Errorf("status %+v, want 24 bytes / 3 elements", st)
		}
		if want := []float64{1, 2, 3, -1, -1, -1, -1, -1}; !reflect.DeepEqual(in, want) {
			return fmt.Errorf("landed %v, want %v", in, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceViewNeverReachesPool: the ladder's halo edge is 32 float64 =
// 256 B, exactly a payload-pool class, and PutBuf adopts any buffer whose
// capacity is a class size — an in-place view handed to it would give the
// user's halo to the next GetBuf(256). However the receive completes —
// delivered, resolved by a dropped message's ghost, or cancelled at its
// deadline — no buffer of the class may alias the user's afterwards.
func TestInPlaceViewNeverReachesPool(t *testing.T) {
	const count = 32
	var mu sync.Mutex
	var halos [][]float64 // every user buffer a receive was posted on
	recvInto := func(c *mpi.Comm, complete func(*mpi.Request) error) error {
		halo := make([]float64, count)
		mu.Lock()
		halos = append(halos, halo)
		mu.Unlock()
		r, err := c.Irecv(halo, count, mpi.Float64, 0, 1)
		if err != nil {
			return err
		}
		return complete(r)
	}
	edge := make([]float64, count)

	// Delivered.
	if err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			return c.Send(edge, count, mpi.Float64, 1, 1)
		}
		return recvInto(c, func(r *mpi.Request) error {
			_, err := c.Wait(r)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}

	// Resolved by a dropped message's ghost.
	w := faultWorld(t, 2, model.GeminiLike(), simnet.FaultConfig{Seed: 1, Drop: 1})
	if err := w.Run(func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		if rk.ID == 0 {
			if err := c.Send(edge, count, mpi.Float64, 1, 1); !errors.Is(err, mpi.ErrMessageLost) {
				return fmt.Errorf("send on a 100%%-drop fabric: %v", err)
			}
			return nil
		}
		return recvInto(c, func(r *mpi.Request) error {
			if _, err := c.Wait(r); !errors.Is(err, mpi.ErrMessageLost) {
				return fmt.Errorf("receive resolved by a ghost: %v, want ErrMessageLost", err)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}

	// Cancelled at its deadline: nothing was sent.
	if err := spmd.Run(2, model.GeminiLike(), func(rk *spmd.Rank) error {
		if rk.ID == 0 {
			return nil
		}
		c := mpi.World(rk)
		c.SetWatchdog(20 * time.Millisecond)
		return recvInto(c, func(r *mpi.Request) error {
			if _, err := c.WaitTimeout(r, 1000); !errors.Is(err, mpi.ErrDeadline) {
				return fmt.Errorf("receive nothing was sent for: %v, want ErrDeadline", err)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}

	// Drain the class: take buffers until the pool has to make one.
	var taken [][]byte
	defer func() {
		for _, b := range taken {
			transport.PutBuf(b)
		}
	}()
	for {
		_, m0 := transport.PoolStats()
		b := transport.GetBuf(count * 8)
		taken = append(taken, b)
		if _, m1 := transport.PoolStats(); m1 != m0 {
			break
		}
		for i, halo := range halos {
			if unsafe.Pointer(&b[0]) == unsafe.Pointer(&halo[0]) {
				t.Fatalf("GetBuf(256) returned the buffer receive %d was posted on", i)
			}
		}
	}
	if len(halos) != 3 {
		t.Fatalf("%d receives ran, want 3", len(halos))
	}
}

// TestIrecvPinned: seeded ring traffic through Irecv over every basic
// datatype, at eager and rendezvous sizes, lands these bytes and reads
// these clocks. The default build receives in place and the `purego` build
// (make verify runs this package under it) through staging buffers; both
// have to reproduce the constants, so neither the bytes nor the modelled
// time can tell the two paths apart.
func TestIrecvPinned(t *testing.T) {
	const n = 4
	t.Setenv(transport.EnvVar, "simnet")
	sums := make([]uint64, n)
	finalV := make([]model.Time, n)
	err := spmd.Run(n, model.GeminiLike(), func(rk *spmd.Rank) error {
		c := mpi.World(rk)
		me := rk.ID
		right, left := (me+1)%n, (me+n-1)%n
		h := fnv.New64a()
		for round := 0; round < 3; round++ {
			for ci, tc := range equivCases() {
				for _, bytes := range []int{256, 1 << 10, 8 << 10} {
					count := bytes / tc.dt.Size()
					out := tc.mk(rand.New(rand.NewSource(int64(me*7919+bytes+round))), count)
					in := tc.zero(count)
					// Odd cases send first, so their message is unexpected.
					var rr, sr *mpi.Request
					var err error
					if ci%2 == 1 {
						if sr, err = c.Isend(out, count, tc.dt, right, ci); err != nil {
							return err
						}
						rk.Compute(5000)
					}
					if rr, err = c.Irecv(in, count, tc.dt, left, ci); err != nil {
						return err
					}
					if sr == nil {
						if sr, err = c.Isend(out, count, tc.dt, right, ci); err != nil {
							return err
						}
					}
					if _, err := c.Waitall([]*mpi.Request{rr, sr}); err != nil {
						return err
					}
					fmt.Fprintf(h, "%v", in)
				}
			}
		}
		sums[me], finalV[me] = h.Sum64(), rk.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSums := []uint64{0xd1e784ceafb18fed, 0xe2a9b0d68f996ea7, 0xf184610c15c90cb4, 0xed71dc615b6e081e}
	wantV := []model.Time{641790, 641790, 641790, 641790}
	if !reflect.DeepEqual(sums, wantSums) {
		t.Errorf("landed-byte hashes %#v, want %#v", sums, wantSums)
	}
	if !reflect.DeepEqual(finalV, wantV) {
		t.Errorf("final virtual times %#v, want %#v", finalV, wantV)
	}
}
