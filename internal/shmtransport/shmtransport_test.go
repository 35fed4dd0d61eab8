package shmtransport

import (
	"sync"
	"testing"

	"commintent/internal/transport"
)

func sendBytes(p *Port, dst, tag int, payload []byte, rendezvous bool) {
	wire := transport.GetBuf(len(payload))
	copy(wire, payload)
	p.Send(dst, tag, wire, 0, rendezvous)
}

// Matching semantics, the handle contracts and the cancellation races are
// checked for this transport by the Port conformance suite in
// internal/transport; the tests here cover the mailbox.

// TestMailboxWatermark: senders running ahead of the owner's progress loop
// show up as one deep drain.
func TestMailboxWatermark(t *testing.T) {
	net := New(2)
	for i := 0; i < 5; i++ {
		sendBytes(net.Port(0), 1, i, []byte{0}, false)
	}
	if hw := net.Port(1).MailboxHighWatermark(); hw != 0 {
		t.Errorf("MailboxHighWatermark = %d before the owner drained", hw)
	}
	if n := net.Port(1).PendingUnexpected(); n != 5 {
		t.Errorf("PendingUnexpected = %d want 5", n)
	}
	if hw := net.Port(1).MailboxHighWatermark(); hw != 5 {
		t.Errorf("MailboxHighWatermark = %d want 5 (one drain of five)", hw)
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	const senders = 8
	const per = 200
	net := New(senders + 1)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sendBytes(net.Port(s), senders, 1, []byte{byte(s), byte(i)}, false)
			}
		}(s)
	}
	seen := make([]int, senders)
	for i := 0; i < senders*per; i++ {
		got := make([]byte, 2)
		r := net.Port(senders).PostRecv(transport.AnySource, 1, got, 0)
		r.Wait()
		src := r.Src()
		r.Release()
		if int(got[0]) != src {
			t.Fatalf("payload source %d != envelope source %d", got[0], src)
		}
		// Per-sender FIFO: sequence numbers from one sender ascend.
		if int(got[1]) != seen[src]%256 {
			t.Fatalf("sender %d: got seq %d want %d", src, got[1], seen[src]%256)
		}
		seen[src]++
	}
	wg.Wait()
	for s, n := range seen {
		if n != per {
			t.Errorf("sender %d: %d of %d messages seen", s, n, per)
		}
	}
}

// TestWithdrawnSweptMidQueue: a rendezvous message withdrawn after the owner
// filed it, with eager traffic queued on both sides of it, is gone at the
// owner's next progress step — whichever call makes it — and its neighbours
// keep their order. A message withdrawn while still in the mailbox is never
// filed at all.
func TestWithdrawnSweptMidQueue(t *testing.T) {
	net := New(2)
	src, dst := net.Port(0), net.Port(1)
	sendBytes(src, 1, 7, []byte{1}, false)
	sr := src.Send(1, 7, transport.GetBuf(1), 0, true)
	sendBytes(src, 1, 7, []byte{3}, false)
	if n := dst.PendingUnexpected(); n != 3 {
		t.Fatalf("PendingUnexpected = %d, want 3", n)
	}
	inbox := src.Send(1, 7, transport.GetBuf(1), 0, true)
	if !src.CancelMsg(1, sr.Msg) || !src.CancelMsg(1, inbox.Msg) {
		t.Fatal("cancel of an unmatched message failed")
	}
	dst.Poll()
	if n := dst.tab.Unexpected(); n != 2 {
		t.Errorf("%d unexpected after the sweep, want the two eager messages", n)
	}
	if hw := dst.UnexpectedHighWatermark(); hw != 3 {
		t.Errorf("UnexpectedHighWatermark = %d, want 3", hw)
	}
	for _, want := range []byte{1, 3} {
		var buf [1]byte
		r := dst.PostRecv(0, 7, buf[:], 0)
		r.Wait()
		if buf[0] != want {
			t.Errorf("received %d, want %d", buf[0], want)
		}
		r.Release()
	}
}
