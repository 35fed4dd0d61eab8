package simnet

import (
	"encoding/binary"
	"sync"
	"testing"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// TestEightSenderStress hammers one endpoint from 8 concurrent senders while
// the receiver drains with concrete-pattern receives. Run under -race by
// `make verify`, it checks the locked matching structures and the pools for
// data races and checks per-pair FIFO order end to end.
func TestEightSenderStress(t *testing.T) {
	const senders = 8
	perSender := 500
	if testing.Short() {
		perSender = 50
	}
	f := NewFabric(senders + 1)
	dst := f.Endpoint(senders)

	var wg sync.WaitGroup
	for src := 0; src < senders; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			ep := f.Endpoint(src)
			for i := 0; i < perSender; i++ {
				b := transport.GetBuf(4)
				binary.LittleEndian.PutUint32(b, uint32(i))
				ep.Send(senders, src, b, model.Time(i), false)
			}
		}(src)
	}

	// The receiver posts concrete (src,tag) receives round-robin across the
	// senders, so every bucket is active at once; per-pair FIFO means each
	// source's payloads must arrive in sequence.
	next := make([]uint32, senders)
	buf := make([]byte, 4)
	for i := 0; i < senders*perSender; i++ {
		src := i % senders
		r := dst.PostRecv(src, src, buf, model.Time(i))
		r.Wait()
		if r.Len() != 4 || r.Src() != src {
			t.Fatalf("recv %d: len=%d src=%d, want 4/%d", i, r.Len(), r.Src(), src)
		}
		if got := binary.LittleEndian.Uint32(buf); got != next[src] {
			t.Fatalf("src %d out of order: got seq %d, want %d", src, got, next[src])
		}
		next[src]++
	}
	wg.Wait()
	if n := dst.PendingUnexpected(); n != 0 {
		t.Errorf("%d unexpected messages leaked", n)
	}
	if n := dst.PendingPosted(); n != 0 {
		t.Errorf("%d posted receives leaked", n)
	}
}
