package transport_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"commintent/internal/model"
	"commintent/internal/shmtransport"
	"commintent/internal/simnet"
	"commintent/internal/transport"
)

// The Port conformance suite: one list of cases, run unchanged against every
// transport. It pins what a Port means — MPI matching semantics, the handle
// contracts, the cancellation races, the queue counters — so the transports'
// own tests only have to cover their mechanics (mailbox order, ghosts,
// dedupe, the waits under contention).
//
// Cases drive every rank from the test goroutine unless they say otherwise.
// That is legal on both transports ("owner goroutine only" forbids
// concurrency, not migration) and makes each case a fixed interleaving: on
// simnet a message is in the destination's table when Send returns, on shm
// when the destination's owner next makes progress, and every case is
// written to hold under both.

type world struct {
	name string
	open func(n int) func(rank int) transport.Port
}

var worlds = []world{
	{"simnet", func(n int) func(int) transport.Port {
		f := simnet.NewFabric(n)
		return func(r int) transport.Port { return f.Endpoint(r) }
	}},
	{"shm", func(n int) func(int) transport.Port {
		net := shmtransport.New(n)
		return func(r int) transport.Port { return net.Port(r) }
	}},
}

// send posts an eager message carrying a pooled copy of data.
func send(p transport.Port, dst, tag int, data []byte, arriveV model.Time) transport.SendResult {
	b := transport.GetBuf(len(data))
	copy(b, data)
	return p.Send(dst, tag, b, arriveV, false)
}

// recvNow posts a receive that must find its message already sent, and
// returns the completed handle.
func recvNow(t *testing.T, p transport.Port, src, tag int, buf []byte, postV model.Time) *transport.Recv {
	t.Helper()
	r := p.PostRecv(src, tag, buf, postV)
	if !r.Matched() {
		t.Fatalf("receive (%d,%d) did not match a message already sent", src, tag)
	}
	return r
}

// waitOn runs wait on a goroutine of its own — the port's owner for the
// while — and returns a channel closed when it returns.
func waitOn(wait func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	return done
}

// stillWaiting returns once transport.GateParks reaches parks — the waiter
// behind done has announced a park and found its condition false, parks
// times in all — and fails if that waiter returns first.
func stillWaiting(t *testing.T, done <-chan struct{}, parks int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for transport.GateParks() < parks {
		select {
		case <-done:
			t.Fatal("the wait returned before its own condition held")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d parked waits", parks)
		}
		runtime.Gosched()
	}
}

// returns fails unless the wait behind done returns.
func returns(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the wait never returned")
	}
}

var conformance = []struct {
	name string
	run  func(t *testing.T, port func(int) transport.Port)
}{
	{"source and tag select the message", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		send(port(1), 0, 5, []byte{1}, 10)
		send(port(2), 0, 5, []byte{2}, 20)
		send(port(1), 0, 6, []byte{3}, 30)
		buf := make([]byte, 1)
		r := recvNow(t, dst, 2, 5, buf, 0)
		if r.Src() != 2 || r.Tag() != 5 || r.Len() != 1 || buf[0] != 2 {
			t.Errorf("source matching: src=%d tag=%d len=%d payload=%d", r.Src(), r.Tag(), r.Len(), buf[0])
		}
		r.Release()
		r = recvNow(t, dst, 1, 6, buf, 0)
		if buf[0] != 3 {
			t.Errorf("tag matching: got payload %d, want 3", buf[0])
		}
		r.Release()
		r = recvNow(t, dst, transport.AnySource, transport.AnyTag, buf, 0)
		if buf[0] != 1 || r.Src() != 1 || r.Tag() != 5 {
			t.Errorf("wildcard should take the remaining message: payload %d from (%d,%d)", buf[0], r.Src(), r.Tag())
		}
		r.Release()
		if n := dst.PendingUnexpected(); n != 0 {
			t.Errorf("%d unexpected messages leaked", n)
		}
	}},

	{"earliest posted receive wins across the four patterns", func(t *testing.T, port func(int) transport.Port) {
		// A message (1,5) can match four patterns. Whatever order they are
		// posted in, four such messages complete them in posting order.
		patterns := [4][2]int{{1, 5}, {1, transport.AnyTag}, {transport.AnySource, 5}, {transport.AnySource, transport.AnyTag}}
		rng := rand.New(rand.NewSource(7))
		dst := port(0)
		for trial := 0; trial < 24; trial++ {
			order := rng.Perm(4)
			var rs [4]*transport.Recv
			var bufs [4][1]byte
			for i, k := range order {
				rs[i] = dst.PostRecv(patterns[k][0], patterns[k][1], bufs[i][:], 0)
			}
			if n := dst.PendingPosted(); n != 4 {
				t.Fatalf("trial %d: PendingPosted = %d, want 4", trial, n)
			}
			for i := 0; i < 4; i++ {
				send(port(1), 0, 5, []byte{byte(10 + i)}, 0)
			}
			for i := range rs {
				rs[i].Wait()
				if bufs[i][0] != byte(10+i) {
					t.Fatalf("trial %d order %v: receive posted %d-th got message %d", trial, order, i, bufs[i][0]-10)
				}
				rs[i].Release()
			}
		}
	}},

	{"a posted receive does not take a message that only a later one matches", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		var a, b [1]byte
		ra := dst.PostRecv(1, 5, a[:], 0)
		rb := dst.PostRecv(transport.AnySource, transport.AnyTag, b[:], 0)
		send(port(2), 0, 9, []byte{42}, 0) // only the wildcard matches
		rb.Wait()
		if b[0] != 42 || ra.Matched() {
			t.Errorf("wildcard got %d; concrete receive matched=%v", b[0], ra.Matched())
		}
		rb.Release()
		send(port(1), 0, 5, []byte{43}, 0)
		ra.Wait()
		if a[0] != 43 {
			t.Errorf("concrete receive got %d, want 43", a[0])
		}
		ra.Release()
	}},

	{"wildcards honour arrival order across buckets", func(t *testing.T, port func(int) transport.Port) {
		// Many senders and tags interleaved into a deep unexpected queue:
		// each wildcard pattern must see the first *arrived* match — the
		// indexed buckets must not reorder the probe view — and probing
		// consumes nothing.
		const senders, perTag = 4, 32
		dst := port(senders)
		// Distinct arrival stamps, so an envelope identifies its message.
		arrive := func(src, tag, i int) model.Time {
			return model.Time(i*1000 + (senders-src)*10 + tag)
		}
		for i := 0; i < perTag; i++ {
			for src := 0; src < senders; src++ {
				for tag := 0; tag < 3; tag++ {
					send(port(src), senders, tag, []byte{byte(src), byte(tag)}, arrive(src, tag, i))
				}
			}
		}
		depth := senders * 3 * perTag
		if got := dst.PendingUnexpected(); got != depth {
			t.Fatalf("queued %d messages, want %d", got, depth)
		}
		// Arrival order is (i, src, tag) lexicographic, so the first match
		// for every pattern has i=0 and the smallest matching src, tag.
		for _, tc := range []struct {
			name             string
			src, tag         int
			wantSrc, wantTag int
		}{
			{"both wildcards", transport.AnySource, transport.AnyTag, 0, 0},
			{"source wildcard", transport.AnySource, 2, 0, 2},
			{"tag wildcard", 1, transport.AnyTag, 1, 0},
			{"concrete", 2, 1, 2, 1},
		} {
			env, ok := dst.Probe(tc.src, tc.tag)
			if !ok {
				t.Fatalf("%s: no match in a %d-deep queue", tc.name, depth)
			}
			if env.Src != tc.wantSrc || env.Tag != tc.wantTag {
				t.Errorf("%s: probed (src=%d tag=%d), want (src=%d tag=%d)", tc.name, env.Src, env.Tag, tc.wantSrc, tc.wantTag)
			}
			if env.ArriveV != arrive(tc.wantSrc, tc.wantTag, 0) || env.Bytes != 2 {
				t.Errorf("%s: envelope %+v, want ArriveV %v Bytes 2", tc.name, env, arrive(tc.wantSrc, tc.wantTag, 0))
			}
		}
		if got := dst.PendingUnexpected(); got != depth {
			t.Errorf("probing consumed messages: %d left, want %d", got, depth)
		}
		if _, ok := dst.Probe(0, 99); ok {
			t.Error("probe matched a tag never sent")
		}
		// Drain through wildcard receives: arrival order again, and a
		// mid-queue concrete receive first, so the scan crosses a hole.
		var buf [2]byte
		recvNow(t, dst, 2, 1, buf[:], 0).Release()
		for i := 0; i < perTag; i++ {
			for src := 0; src < senders; src++ {
				for tag := 0; tag < 3; tag++ {
					if i == 0 && src == 2 && tag == 1 {
						continue
					}
					r := recvNow(t, dst, transport.AnySource, transport.AnyTag, buf[:], 0)
					if r.Src() != src || r.Tag() != tag || r.ArriveV() != arrive(src, tag, i) {
						t.Fatalf("drain: got (%d,%d)@%v, want (%d,%d)@%v", r.Src(), r.Tag(), r.ArriveV(), src, tag, arrive(src, tag, i))
					}
					r.Release()
				}
			}
		}
		if _, ok := dst.Probe(transport.AnySource, transport.AnyTag); ok {
			t.Error("probe matched on drained queue")
		}
		if hw := dst.UnexpectedHighWatermark(); hw != depth {
			t.Errorf("UnexpectedHighWatermark = %d, want %d", hw, depth)
		}
	}},

	{"messages of one pair do not overtake", func(t *testing.T, port func(int) transport.Port) {
		const k = 50
		for i := 0; i < k; i++ {
			send(port(0), 1, 5, []byte{byte(i)}, model.Time(i))
		}
		var buf [1]byte
		for i := 0; i < k; i++ {
			recvNow(t, port(1), 0, 5, buf[:], 0).Release()
			if buf[0] != byte(i) {
				t.Fatalf("message %d delivered out of order: got %d", i, buf[0])
			}
		}
	}},

	{"messages of one pair do not overtake under concurrency", func(t *testing.T, port func(int) transport.Port) {
		const k = 200
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < k; i++ {
				send(port(0), 1, 0, []byte{byte(i)}, model.Time(i))
			}
		}()
		var buf [1]byte
		for i := 0; i < k; i++ {
			r := port(1).PostRecv(0, 0, buf[:], 0)
			r.Wait()
			r.Release()
			if buf[0] != byte(i) {
				t.Errorf("message %d delivered out of order: got %d", i, buf[0])
				break
			}
		}
		wg.Wait()
	}},

	{"payload round-trips and is truncated to the posted buffer", func(t *testing.T, port func(int) transport.Port) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 50; i++ {
			payload := make([]byte, rng.Intn(300))
			rng.Read(payload)
			room := rng.Intn(300)
			send(port(0), 1, i, payload, 0)
			buf := make([]byte, room)
			r := recvNow(t, port(1), 0, i, buf, 0)
			want := len(payload)
			if room < want {
				want = room
			}
			if r.Len() != want || string(buf[:want]) != string(payload[:want]) {
				t.Fatalf("payload %d bytes into %d: Len = %d, want %d, bytes equal = %v", len(payload), room, r.Len(), want, string(buf[:want]) == string(payload[:want]))
			}
			r.Release()
		}
	}},

	{"send takes ownership of the buffer and returns it to the pool", func(t *testing.T, port func(int) transport.Port) {
		b := transport.GetBuf(3)
		copy(b, []byte{1, 2, 3})
		first := &b[0]
		if sr := port(0).Send(1, 0, b, 0, false); sr.Msg != nil {
			t.Error("eager send exposed a message handle")
		}
		var out [3]byte
		recvNow(t, port(1), 0, 0, out[:], 0).Release()
		if out != [3]byte{1, 2, 3} {
			t.Errorf("payload = %v", out)
		}
		// The buffer is the transport's from Send on; once copied out it is
		// back on its size class's freelist: take from the class until it
		// runs dry.
		for {
			hits, _ := transport.PoolStats()
			if g := transport.GetBuf(3); &g[0] == first {
				return
			}
			if h, _ := transport.PoolStats(); h == hits {
				break
			}
		}
		t.Error("the sent buffer never came back through GetBuf")
	}},

	{"completion record and the unexpected flag", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		// Posted at 10, arrives at 50: expected.
		var buf [4]byte
		r := dst.PostRecv(1, 3, buf[:], 10)
		if r.Matched() {
			t.Fatal("matched before any send")
		}
		if n := dst.PendingPosted(); n != 1 {
			t.Errorf("PendingPosted = %d, want 1", n)
		}
		send(port(1), 0, 3, []byte{9, 8, 7, 6}, 50)
		r.Wait()
		r.Wait() // idempotent
		if r.Src() != 1 || r.Tag() != 3 || r.Len() != 4 || r.ArriveV() != 50 || r.PostV() != 10 || r.Fault() != transport.FaultNone {
			t.Errorf("record: src=%d tag=%d len=%d arriveV=%v postV=%v fault=%v", r.Src(), r.Tag(), r.Len(), r.ArriveV(), r.PostV(), r.Fault())
		}
		if r.Unexpected() {
			t.Error("receive posted at 10 with arrival at 50 flagged unexpected")
		}
		r.Release()
		if n := dst.PendingPosted(); n != 0 {
			t.Errorf("PendingPosted = %d after completion", n)
		}
		// Arrival stamp 500, posted at 900: unexpected.
		send(port(1), 0, 3, []byte{1}, 500)
		r = recvNow(t, dst, 1, 3, buf[:], 900)
		if !r.Unexpected() {
			t.Error("late-posted receive not flagged unexpected")
		}
		r.Release()
		// The flag compares timestamps, not real order: queued first, but
		// stamped to arrive after the posting.
		send(port(1), 0, 3, []byte{1}, 2000)
		r = recvNow(t, dst, 1, 3, buf[:], 900)
		if r.Unexpected() {
			t.Error("receive with later arrival stamp flagged unexpected")
		}
		r.Release()
	}},

	{"probe reports the envelope and does not consume", func(t *testing.T, port func(int) transport.Port) {
		if _, ok := port(1).Probe(0, 3); ok {
			t.Fatal("probe matched on empty queue")
		}
		send(port(0), 1, 3, []byte{1, 2, 3}, 7)
		env, ok := port(1).Probe(0, 3)
		if !ok || env != (transport.Envelope{Src: 0, Tag: 3, Bytes: 3, ArriveV: 7}) {
			t.Fatalf("probe = %+v ok=%v", env, ok)
		}
		if n := port(1).PendingUnexpected(); n != 1 {
			t.Errorf("probe consumed the message: %d pending", n)
		}
		var buf [3]byte
		recvNow(t, port(1), 0, 3, buf[:], 0).Release()
	}},

	{"counts and high-watermark", func(t *testing.T, port func(int) transport.Port) {
		for i := 0; i < 5; i++ {
			send(port(0), 1, i, []byte{0}, 0)
		}
		if n := port(1).PendingUnexpected(); n != 5 {
			t.Errorf("PendingUnexpected = %d, want 5", n)
		}
		var buf [1]byte
		for i := 0; i < 5; i++ {
			recvNow(t, port(1), 0, i, buf[:], 0).Release()
		}
		if n := port(1).PendingUnexpected(); n != 0 {
			t.Errorf("PendingUnexpected = %d after draining", n)
		}
		if hw := port(1).UnexpectedHighWatermark(); hw != 5 {
			t.Errorf("UnexpectedHighWatermark = %d, want 5", hw)
		}
	}},

	{"CancelRecv wins against silence", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		var buf [4]byte
		r := dst.PostRecv(1, 0, buf[:], 10)
		if r.WaitTimeout(5 * time.Millisecond) {
			t.Fatal("receive completed with no sender")
		}
		if !dst.CancelRecv(r) {
			t.Fatal("cancellation of an unmatched receive failed")
		}
		r.Wait()
		if r.Fault() != transport.FaultCancelled || r.Len() != 0 {
			t.Errorf("fault %v len %d, want cancelled/0", r.Fault(), r.Len())
		}
		r.Release()
		if n := dst.PendingPosted(); n != 0 {
			t.Errorf("%d posted receives leaked after cancel", n)
		}
		// A message arriving after the cancellation queues as unexpected
		// and is claimable by a fresh receive.
		send(port(1), 0, 0, []byte{1, 2, 3, 4}, 50)
		r2 := recvNow(t, dst, 1, 0, buf[:], 60)
		if r2.Fault() != transport.FaultNone || r2.Len() != 4 {
			t.Errorf("post-cancel receive: fault %v len %d", r2.Fault(), r2.Len())
		}
		r2.Release()
	}},

	{"CancelRecv takes one receive out of the middle of its queue", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		var bufs [3][1]byte
		var rs [3]*transport.Recv
		for i := range rs {
			rs[i] = dst.PostRecv(1, 0, bufs[i][:], 0)
		}
		if !dst.CancelRecv(rs[1]) {
			t.Fatal("cancel of the middle receive failed")
		}
		rs[1].Release()
		send(port(1), 0, 0, []byte{1}, 0)
		send(port(1), 0, 0, []byte{2}, 0)
		rs[0].Wait()
		rs[2].Wait()
		if bufs[0][0] != 1 || bufs[2][0] != 2 {
			t.Errorf("survivors got %d and %d, want 1 and 2", bufs[0][0], bufs[2][0])
		}
		rs[0].Release()
		rs[2].Release()
	}},

	{"CancelRecv loses to a delivery", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		var buf [1]byte
		r := dst.PostRecv(1, 0, buf[:], 0)
		send(port(1), 0, 0, []byte{9}, 10)
		if dst.CancelRecv(r) {
			t.Fatal("cancellation won against an already-sent message")
		}
		r.Wait()
		if r.Fault() != transport.FaultNone || r.Len() != 1 || buf[0] != 9 {
			t.Errorf("fault %v len %d payload %d after losing the cancel race", r.Fault(), r.Len(), buf[0])
		}
		r.Release()
	}},

	{"rendezvous handshake", func(t *testing.T, port func(int) transport.Port) {
		b := transport.GetBuf(8)
		for i := range b {
			b[i] = byte(i)
		}
		sr := port(0).Send(1, 7, b, 100, true)
		if sr.Msg == nil {
			t.Fatal("rendezvous send returned no handle")
		}
		if sr.Msg.IsMatched() {
			t.Fatal("matched before any receive was posted")
		}
		if sr.Msg.WaitMatchedTimeout(5 * time.Millisecond) {
			t.Fatal("WaitMatchedTimeout reported a match with no receive posted")
		}
		var got [8]byte
		recvNow(t, port(1), 0, 7, got[:], 300).Release()
		sr.Msg.WaitMatched()
		if !sr.Msg.IsMatched() || !sr.Msg.WaitMatchedTimeout(time.Second) {
			t.Error("sender does not observe the match")
		}
		if v := sr.Msg.MatchV(); v != 300 {
			t.Errorf("MatchV = %v, want 300 (posting after arrival)", v)
		}
		if got[7] != 7 {
			t.Errorf("payload = %v", got)
		}
		// Arrival after posting: the match is stamped with the arrival.
		r := port(1).PostRecv(0, 7, got[:], 300)
		sr = port(0).Send(1, 7, transport.GetBuf(8), 450, true)
		r.Wait()
		r.Release()
		sr.Msg.WaitMatched()
		if v := sr.Msg.MatchV(); v != 450 {
			t.Errorf("MatchV = %v, want 450 (arrival after posting)", v)
		}
	}},

	{"rendezvous sender parked when the match comes", func(t *testing.T, port func(int) transport.Port) {
		sr := port(0).Send(1, 2, transport.GetBuf(4), 0, true)
		done := make(chan struct{})
		go func() {
			sr.Msg.WaitMatched()
			close(done)
		}()
		time.Sleep(2 * time.Millisecond) // let the sender get past its spin
		var buf [4]byte
		recvNow(t, port(1), 0, 2, buf[:], 0).Release()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("parked sender never woke")
		}
	}},

	{"a token left by another receive's completion does not end a Wait", func(t *testing.T, port func(int) transport.Port) {
		// A port has one gate and one owner, so a token deposited for one
		// completion can be found by the owner's next wait on another: it
		// must cost a re-check, not a return.
		dst := port(0)
		var a, b [1]byte
		ra := dst.PostRecv(1, 0, a[:], 0)
		rb := dst.PostRecv(2, 0, b[:], 0)
		send(port(1), 0, 0, []byte{1}, 0) // ra completes, unwaited (shm: at the next drain)
		transport.LeaveToken(ra)
		parks := transport.GateParks()
		done := waitOn(rb.Wait)
		stillWaiting(t, done, parks+2) // parked, took the token, parked again
		send(port(2), 0, 0, []byte{2}, 0)
		returns(t, done)
		ra.Wait()
		if a[0] != 1 || b[0] != 2 || ra.Src() != 1 || rb.Src() != 2 {
			t.Errorf("payloads %d/%d from %d/%d, want 1/2 from 1/2", a[0], b[0], ra.Src(), rb.Src())
		}
		ra.Release()
		rb.Release()
	}},

	{"a wake for another receive does not end a Wait", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		var a, b [1]byte
		ra := dst.PostRecv(1, 0, a[:], 0)
		rb := dst.PostRecv(2, 0, b[:], 0)
		parks := transport.GateParks()
		done := waitOn(rb.Wait)
		stillWaiting(t, done, parks+1)
		send(port(1), 0, 0, []byte{1}, 0) // wakes the owner parked on rb
		stillWaiting(t, done, parks+2)
		send(port(2), 0, 0, []byte{2}, 0)
		returns(t, done)
		ra.Wait()
		if a[0] != 1 || b[0] != 2 {
			t.Errorf("payloads %d/%d, want 1/2", a[0], b[0])
		}
		ra.Release()
		rb.Release()
	}},

	{"a WaitTimeout with a token left over times out, then CancelRecv completes it", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		var a, b [1]byte
		send(port(1), 0, 0, []byte{1}, 0)
		ra := recvNow(t, dst, 1, 0, a[:], 0)
		rb := dst.PostRecv(2, 0, b[:], 0)
		transport.LeaveToken(ra)
		if rb.WaitTimeout(5 * time.Millisecond) {
			t.Fatal("WaitTimeout reported a completion with no sender")
		}
		if !dst.CancelRecv(rb) {
			t.Fatal("cancellation of the timed-out receive failed")
		}
		rb.Wait()
		if rb.Fault() != transport.FaultCancelled || rb.Len() != 0 {
			t.Errorf("fault %v len %d, want cancelled/0", rb.Fault(), rb.Len())
		}
		ra.Release()
		rb.Release()
	}},

	{"a rendezvous WaitMatched after an unrelated wake waits for its match", func(t *testing.T, port func(int) transport.Port) {
		src := port(0)
		var x [1]byte
		rx := src.PostRecv(2, 0, x[:], 0)
		sr := src.Send(1, 3, transport.GetBuf(1), 0, true)
		parks := transport.GateParks()
		done := waitOn(sr.Msg.WaitMatched)
		stillWaiting(t, done, parks+1)
		send(port(2), 0, 0, []byte{7}, 0) // completes or queues rx: wakes port 0
		stillWaiting(t, done, parks+2)
		var got [1]byte
		recvNow(t, port(1), 0, 3, got[:], 0).Release()
		returns(t, done)
		if !sr.Msg.IsMatched() {
			t.Error("WaitMatched returned unmatched")
		}
		rx.Wait()
		if x[0] != 7 {
			t.Errorf("unrelated receive got %d, want 7", x[0])
		}
		rx.Release()
	}},

	{"CancelMsg wins: the message is gone", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		sr := port(1).Send(0, 0, transport.GetBuf(1), 10, true)
		if n := dst.PendingUnexpected(); n != 1 {
			t.Fatalf("PendingUnexpected = %d with one rendezvous message queued", n)
		}
		if sr.Msg.WaitMatchedTimeout(5 * time.Millisecond) {
			t.Fatal("matched with no receive posted")
		}
		if !port(1).CancelMsg(0, sr.Msg) {
			t.Fatal("cancellation of an unmatched message failed")
		}
		if sr.Msg.IsMatched() {
			t.Error("withdrawn message reports matched")
		}
		// Once the owner has made progress the dead message is not pending.
		if n := dst.PendingUnexpected(); n != 0 {
			t.Errorf("%d unexpected messages remain after a won cancel", n)
		}
		if _, ok := dst.Probe(1, 0); ok {
			t.Error("probe sees the withdrawn message")
		}
		// It must not match a later receive…
		var buf [1]byte
		r := dst.PostRecv(1, 0, buf[:], 0)
		if r.WaitTimeout(5 * time.Millisecond) {
			t.Fatal("withdrawn message still matched a receive")
		}
		// …and a fresh send gets through to it instead.
		send(port(1), 0, 0, []byte{5}, 20)
		r.Wait()
		if buf[0] != 5 || r.ArriveV() != 20 {
			t.Errorf("got payload %d arriveV %v, want the fresh message", buf[0], r.ArriveV())
		}
		r.Release()
	}},

	{"a withdrawn message never raises the high-watermark", func(t *testing.T, port func(int) transport.Port) {
		dst := port(0)
		// Withdrawn before the owner makes any progress.
		sr := port(1).Send(0, 0, transport.GetBuf(1), 0, true)
		if !port(1).CancelMsg(0, sr.Msg) {
			t.Fatal("cancel failed")
		}
		if n := dst.PendingUnexpected(); n != 0 {
			t.Fatalf("PendingUnexpected = %d after a won cancel", n)
		}
		// While it was alive and queued it may have counted (simnet files a
		// message the moment it is sent); dead, it must not count again.
		base := dst.UnexpectedHighWatermark()
		if base > 1 {
			t.Fatalf("UnexpectedHighWatermark = %d after one message", base)
		}
		for i := 0; i < 3; i++ {
			send(port(1), 0, 1, []byte{0}, 0)
		}
		if n := dst.PendingUnexpected(); n != 3 {
			t.Errorf("PendingUnexpected = %d, want 3", n)
		}
		if hw := dst.UnexpectedHighWatermark(); hw != 3 {
			t.Errorf("UnexpectedHighWatermark = %d, want 3: the dead message was counted", hw)
		}
	}},

	{"CancelMsg loses to a match", func(t *testing.T, port func(int) transport.Port) {
		sr := port(1).Send(0, 0, transport.GetBuf(1), 10, true)
		var buf [1]byte
		recvNow(t, port(0), 1, 0, buf[:], 0).Release()
		if port(1).CancelMsg(0, sr.Msg) {
			t.Fatal("cancellation won against an already-matched message")
		}
		if !sr.Msg.WaitMatchedTimeout(time.Second) {
			t.Fatal("match signal lost")
		}
	}},
}

func TestPortConformance(t *testing.T) {
	for _, w := range worlds {
		for _, c := range conformance {
			t.Run(w.name+"/"+c.name, func(t *testing.T) { c.run(t, w.open(5)) })
		}
	}
}
