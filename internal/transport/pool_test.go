package transport

import "testing"

// TestBufPoolClasses checks GetBuf/PutBuf size-class routing: in-class
// buffers are recycled with class-sized capacity, oversized requests fall
// through to the allocator, and non-class-sized buffers are dropped (the
// only foreign buffers PutBuf can detect; class-sized foreign buffers are
// excluded by the ownership contract, see PutBuf's doc comment).
func TestBufPoolClasses(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("GetBuf(100): len=%d cap=%d, want 100/128", len(b), cap(b))
	}
	b[0] = 42
	PutBuf(b)
	b2 := GetBuf(128)
	if cap(b2) != 128 {
		t.Errorf("recycled cap = %d, want 128", cap(b2))
	}
	// Oversized buffers bypass the pool entirely.
	big := GetBuf(1<<20 + 1)
	if len(big) != 1<<20+1 {
		t.Errorf("oversize len = %d", len(big))
	}
	PutBuf(big)
	// A buffer whose capacity is not an exact class size must be dropped,
	// not pooled (its class peer would come back with short capacity).
	PutBuf(make([]byte, 100, 100))
	hits0, misses0 := PoolStats()
	GetBuf(64)
	hits1, misses1 := PoolStats()
	if hits1+misses1 != hits0+misses0+1 {
		t.Errorf("PoolStats did not count: %d+%d -> %d+%d", hits0, misses0, hits1, misses1)
	}
}

// TestPoolHoldsInFlightWorkingSet: a port keeps a whole op's in-flight
// buffers. A 256-rank halo op has 512 256-B sends outstanding at once; once
// they have come home on their headers, the port's next 512 draws must all
// hit, so the hit rate does not depend on how many sends the scheduler let
// pile up.
func TestPoolHoldsInFlightWorkingSet(t *testing.T) {
	const inFlight, size = 512, 256
	var src, dst Headers
	buf := make([]byte, size)
	op := func() {
		msgs := make([]*Msg, inFlight)
		for i := range msgs {
			msgs[i] = src.NewMsg(0, 7, src.GetBuf(size), 0, false)
		}
		for _, m := range msgs {
			r := dst.NewRecv(nil, 0, 7, buf, 0)
			Complete(r, m)
			r.Release()
		}
		src.FlushPoolStats()
	}
	op() // the first op draws its buffers from the shared pool
	hits0, misses0 := PoolStats()
	op()
	hits1, misses1 := PoolStats()
	if misses := misses1 - misses0; misses != 0 || hits1-hits0 != inFlight {
		t.Errorf("%d GetBuf(%d) after %d sends came home: %d hits, %d misses; want every one to hit",
			inFlight, size, inFlight, hits1-hits0, misses)
	}
}
