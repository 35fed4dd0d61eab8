package simnet

import (
	"testing"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// faultTrace records one run's observable fault decisions for a scripted
// exchange: per-message (fault, arriveV, bytes) triples on the receiver.
type faultTrace struct {
	fault   []transport.FaultKind
	arriveV []model.Time
	n       []int
}

// runScripted sends msgs messages 1→0 with per-message tags and receives
// them all, under cfg, returning the receiver-observed trace.
func runScripted(cfg FaultConfig, msgs int) faultTrace {
	f := NewFabric(2)
	f.SetFaults(cfg)
	src, dst := f.Endpoint(1), f.Endpoint(0)
	var tr faultTrace
	for i := 0; i < msgs; i++ {
		r := dst.PostRecv(1, i, make([]byte, 4), model.Time(i))
		send(src, 0, i, []byte{byte(i), 1, 2, 3}, model.Time(100+10*i))
		r.Wait()
		tr.fault = append(tr.fault, r.Fault())
		tr.arriveV = append(tr.arriveV, r.ArriveV())
		tr.n = append(tr.n, r.Len())
		r.Release()
	}
	return tr
}

func TestFaultSameSeedBitIdentical(t *testing.T) {
	cfg := FaultConfig{Seed: 42, Drop: 0.2, Delay: 0.3, DelayMax: 500}
	a := runScripted(cfg, 200)
	b := runScripted(cfg, 200)
	drops := 0
	for i := range a.fault {
		if a.fault[i] != b.fault[i] || a.arriveV[i] != b.arriveV[i] || a.n[i] != b.n[i] {
			t.Fatalf("message %d diverged between same-seed runs: %v/%d/%d vs %v/%d/%d",
				i, a.fault[i], a.arriveV[i], a.n[i], b.fault[i], b.arriveV[i], b.n[i])
		}
		if a.fault[i] == transport.FaultDropped {
			drops++
		}
	}
	if drops == 0 || drops == 200 {
		t.Fatalf("drop rate 0.2 over 200 messages produced %d drops", drops)
	}
	c := runScripted(FaultConfig{Seed: 43, Drop: 0.2, Delay: 0.3, DelayMax: 500}, 200)
	same := true
	for i := range a.fault {
		if a.fault[i] != c.fault[i] || a.arriveV[i] != c.arriveV[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

func TestFaultDropDeliversGhost(t *testing.T) {
	f := NewFabric(2)
	f.SetFaults(FaultConfig{Seed: 1, Drop: 1})
	dst := f.Endpoint(0)
	r := dst.PostRecv(1, 7, make([]byte, 4), 5)
	sr := send(f.Endpoint(1), 0, 7, []byte{1, 2, 3, 4}, 50)
	if sr.Fault != transport.FaultDropped {
		t.Fatalf("sender saw fault %v, want dropped", sr.Fault)
	}
	r.Wait()
	if r.Fault() != transport.FaultDropped {
		t.Fatalf("receiver saw fault %v, want dropped", r.Fault())
	}
	if r.Len() != 0 {
		t.Fatalf("ghost delivered %d payload bytes", r.Len())
	}
	if r.ArriveV() != 50 {
		t.Fatalf("ghost arriveV = %d, want the deterministic 50", r.ArriveV())
	}
	r.Release()
	if st := f.FaultStats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want Dropped=1", st)
	}
}

func TestFaultDeadRank(t *testing.T) {
	f := NewFabric(3)
	f.SetFaults(FaultConfig{Seed: 1, DeadRanks: map[int]bool{2: true}})
	// Traffic *to* the dead rank ghosts on the sender...
	sr := send(f.Endpoint(0), 2, 0, []byte{1}, 10)
	if sr.Fault != transport.FaultPeerDead {
		t.Fatalf("send to dead rank: fault %v", sr.Fault)
	}
	// ...and traffic *from* it ghosts on the receiver.
	r := f.Endpoint(0).PostRecv(2, 3, make([]byte, 1), 0)
	send(f.Endpoint(2), 0, 3, []byte{9}, 20)
	r.Wait()
	if r.Fault() != transport.FaultPeerDead || r.Len() != 0 {
		t.Fatalf("recv from dead rank: fault %v len %d", r.Fault(), r.Len())
	}
	r.Release()
	// Healthy pair unaffected.
	r = f.Endpoint(0).PostRecv(1, 4, make([]byte, 1), 0)
	send(f.Endpoint(1), 0, 4, []byte{8}, 30)
	r.Wait()
	if r.Fault() != FaultNone || r.Len() != 1 {
		t.Fatalf("healthy pair: fault %v len %d", r.Fault(), r.Len())
	}
	r.Release()
}

func TestFaultSlowRankAddsLatency(t *testing.T) {
	f := NewFabric(3)
	f.SetFaults(FaultConfig{Seed: 1, SlowRanks: map[int]model.Time{1: 1000}})
	r := f.Endpoint(0).PostRecv(1, 0, make([]byte, 1), 0)
	send(f.Endpoint(1), 0, 0, []byte{1}, 100)
	r.Wait()
	if r.ArriveV() != 1100 {
		t.Fatalf("slow-source arrival %d, want 1100", r.ArriveV())
	}
	r.Release()
	r = f.Endpoint(2).PostRecv(0, 0, make([]byte, 1), 0)
	send(f.Endpoint(0), 2, 0, []byte{1}, 100)
	r.Wait()
	if r.ArriveV() != 100 {
		t.Fatalf("healthy-link arrival %d, want 100", r.ArriveV())
	}
	r.Release()
}

func TestFaultDelayBounded(t *testing.T) {
	cfg := FaultConfig{Seed: 7, Delay: 1, DelayMax: 400}
	tr := runScripted(cfg, 100)
	delayed := 0
	for i, v := range tr.arriveV {
		base := model.Time(100 + 10*i)
		if v < base || v > base+400 {
			t.Fatalf("message %d arrival %d outside [%d,%d]", i, v, base, base+400)
		}
		if v > base {
			delayed++
		}
	}
	if delayed == 0 {
		t.Fatal("delay rate 1 delayed nothing")
	}
}

func TestFaultDuplicateDeduped(t *testing.T) {
	f := NewFabric(2)
	f.SetFaults(FaultConfig{Seed: 3, Dup: 1})
	dst := f.Endpoint(0)
	const msgs = 20
	for i := 0; i < msgs; i++ {
		send(f.Endpoint(1), 0, 5, []byte{byte(i)}, model.Time(10*i))
	}
	for i := 0; i < msgs; i++ {
		r := dst.PostRecv(1, 5, make([]byte, 1), 0)
		r.Wait()
		if r.Fault() != FaultNone || r.Len() != 1 {
			t.Fatalf("message %d: fault %v len %d", i, r.Fault(), r.Len())
		}
		r.Release()
	}
	if n := dst.PendingUnexpected(); n != 0 {
		t.Fatalf("%d unexpected messages leaked (duplicates not deduped)", n)
	}
	st := f.FaultStats()
	if st.Duplicated != msgs || st.Deduped != msgs {
		t.Fatalf("stats = %+v, want Duplicated=Deduped=%d", st, msgs)
	}
}

func TestFaultReorderAdjacentSwap(t *testing.T) {
	f := NewFabric(2)
	f.SetFaults(FaultConfig{Seed: 5, Reorder: 1})
	dst := f.Endpoint(0)
	// Only eager messages are eligible for the stash; send four and expect
	// pairwise swaps 2,1,4,3.
	for i := 1; i <= 4; i++ {
		send(f.Endpoint(1), 0, 5, []byte{byte(i)}, model.Time(10*i))
	}
	var got []byte
	for i := 0; i < 4; i++ {
		buf := make([]byte, 1)
		r := dst.PostRecv(1, 5, buf, 0)
		r.Wait()
		if r.Len() != 1 {
			t.Fatalf("message %d truncated to %d bytes", i, r.Len())
		}
		got = append(got, buf[0])
		r.Release()
	}
	want := []byte{2, 1, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

func TestFaultTagScopeExcludesControlTraffic(t *testing.T) {
	f := NewFabric(2)
	f.SetFaults(FaultConfig{Seed: 1, Drop: 1, TagSpan: 100, UserSpan: 50})
	dst := f.Endpoint(0)
	// Tag 10 is in the user half: dropped.
	r := dst.PostRecv(1, 10, make([]byte, 1), 0)
	send(f.Endpoint(1), 0, 10, []byte{1}, 10)
	r.Wait()
	if r.Fault() != transport.FaultDropped {
		t.Fatalf("user-scope tag: fault %v", r.Fault())
	}
	r.Release()
	// Tag 60 is in the control half: delivered intact.
	r = dst.PostRecv(1, 60, make([]byte, 1), 0)
	send(f.Endpoint(1), 0, 60, []byte{2}, 20)
	r.Wait()
	if r.Fault() != FaultNone || r.Len() != 1 {
		t.Fatalf("control-scope tag: fault %v len %d", r.Fault(), r.Len())
	}
	r.Release()
}
