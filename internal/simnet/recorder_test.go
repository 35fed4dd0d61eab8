package simnet

import (
	"encoding/json"
	"strings"
	"testing"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// emitN publishes n send events for rank on f with increasing virtual time.
func emitN(f *Fabric, rank, n int) {
	for i := 0; i < n; i++ {
		f.Emit(Event{Rank: rank, Kind: EvSend, Peer: 1, Tag: i, Bytes: 8, V: model.Time(100 + i)})
	}
}

func TestRecorderRingWrapOldestFirst(t *testing.T) {
	f := NewFabric(2)
	rec := f.EnableRecorder(4)
	if rec.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", rec.Cap())
	}
	emitN(f, 0, 10)
	evs := rec.RankEvents(0)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Oldest-first: the last 4 of the 10 emitted, tags 6..9.
	for i, e := range evs {
		if e.Tag != 6+i {
			t.Fatalf("event %d has tag %d, want %d (oldest-first after wrap)", i, e.Tag, 6+i)
		}
	}
	if got := rec.Total(0); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	if got := rec.LastV(0); got != 109 {
		t.Errorf("LastV = %v, want 109", got)
	}
	// The other rank's ring is untouched.
	if got := rec.Total(1); got != 0 {
		t.Errorf("rank 1 Total = %d, want 0", got)
	}
}

func TestRecorderNilAndIdempotent(t *testing.T) {
	var rec *Recorder
	if rec.Cap() != 0 || rec.Total(0) != 0 || rec.LastV(0) != 0 || rec.RankEvents(0) != nil {
		t.Fatal("nil Recorder accessors must be zero-valued no-ops")
	}
	f := NewFabric(1)
	if f.Recorder() != nil {
		t.Fatal("fresh fabric has a recorder")
	}
	a := f.EnableRecorder(8)
	b := f.EnableRecorder(64)
	if a != b || f.Recorder() != a {
		t.Fatal("EnableRecorder is not idempotent")
	}
	if a.Cap() != 8 {
		t.Fatalf("second bounded EnableRecorder changed capacity: %d", a.Cap())
	}
	// Zero capacity means unbounded.
	if g := NewFabric(1).EnableRecorder(0); g.Cap() != 0 {
		t.Fatalf("EnableRecorder(0) capacity = %d, want 0 (unbounded)", g.Cap())
	}
}

func TestRecorderUnboundedKeepsEverything(t *testing.T) {
	f := NewFabric(2)
	rec := f.EnableRecorder(-1)
	const n = 3*DefaultRecorderCap + 7
	emitN(f, 1, n)
	evs := rec.RankEvents(1)
	if len(evs) != n || rec.Total(1) != n {
		t.Fatalf("kept %d of %d events (total %d)", len(evs), n, rec.Total(1))
	}
	for i, e := range evs {
		if e.Tag != i {
			t.Fatalf("event %d has tag %d", i, e.Tag)
		}
	}
}

func TestRecorderWidensNeverNarrows(t *testing.T) {
	f := NewFabric(1)
	rec := f.EnableRecorder(4)
	emitN(f, 0, 6) // the ring keeps tags 2..5
	if f.EnableRecorder(0) != rec || rec.Cap() != 0 {
		t.Fatalf("EnableRecorder(0) did not widen the bounded recorder: cap %d", rec.Cap())
	}
	emitN(f, 0, 6)
	evs := rec.RankEvents(0)
	if len(evs) != 10 || evs[0].Tag != 2 || evs[3].Tag != 5 || evs[4].Tag != 0 || evs[9].Tag != 5 {
		t.Fatalf("widened ring lost or reordered events: %d kept, first tag %d", len(evs), evs[0].Tag)
	}
	if f.EnableRecorder(4) != rec || rec.Cap() != 0 {
		t.Fatalf("a bounded EnableRecorder narrowed the unbounded recorder to cap %d", rec.Cap())
	}
}

func TestRecorderEventsRankMajor(t *testing.T) {
	f := NewFabric(3)
	rec := f.EnableRecorder(0)
	// Interleave the ranks; each rank's tags count up in its own order.
	for i := 0; i < 12; i++ {
		f.Emit(Event{Rank: 2 - i%3, Kind: EvSend, Tag: i / 3})
	}
	evs := rec.Events()
	if len(evs) != 12 {
		t.Fatalf("%d events, want 12", len(evs))
	}
	for i, e := range evs {
		if e.Rank != i/4 || e.Tag != i%4 {
			t.Fatalf("event %d is rank %d tag %d, want rank %d tag %d", i, e.Rank, e.Tag, i/4, i%4)
		}
	}
	if (*Recorder)(nil).Events() != nil {
		t.Fatal("nil recorder returned events")
	}
}

func TestReportFailureDumpIsBounded(t *testing.T) {
	// Unbounded, and a bounded ring larger than a dump that has wrapped.
	for _, capacity := range []int{0, DefaultRecorderCap + 20} {
		f := NewFabric(2)
		f.EnableRecorder(capacity)
		const n = DefaultRecorderCap + 50
		emitN(f, 0, n)
		pm := f.ReportFailure(FailingOp{Rank: 0, Op: "x", Peer: 1})
		d := pm.Ranks[0]
		if d.Rank != 0 || len(d.Events) != DefaultRecorderCap || d.Recorded != n {
			t.Fatalf("cap %d: dump of rank %d: %d events of %d recorded, want the last %d",
				capacity, d.Rank, len(d.Events), d.Recorded, DefaultRecorderCap)
		}
		for i, e := range d.Events {
			if want := n - DefaultRecorderCap + i; e.Tag != want {
				t.Fatalf("cap %d: dump event %d has tag %d, want %d", capacity, i, e.Tag, want)
			}
		}
	}
}

func TestInternRegionTable(t *testing.T) {
	f := NewFabric(1)
	if got := f.InternRegion(""); got != 0 {
		t.Fatalf(`InternRegion("") = %d, want 0`, got)
	}
	a := f.InternRegion("halo")
	b := f.InternRegion("ring")
	if a != 1 || b != 2 {
		t.Fatalf("ids not dense: halo=%d ring=%d", a, b)
	}
	if again := f.InternRegion("halo"); again != a {
		t.Fatalf("re-intern gave %d, want %d", again, a)
	}
	if got := f.RegionLabel(a); got != "halo" {
		t.Fatalf("RegionLabel(%d) = %q", a, got)
	}
	if got := f.RegionLabel(0); got != "" {
		t.Fatalf("RegionLabel(0) = %q, want empty", got)
	}
	if got := f.RegionLabel(99); got != "" {
		t.Fatalf("out-of-range label = %q, want empty", got)
	}
	if labels := f.RegionLabels(); len(labels) != 3 || labels[2] != "ring" {
		t.Fatalf("RegionLabels = %v", labels)
	}
}

func TestEndpointRegionStamp(t *testing.T) {
	f := NewFabric(1)
	ep := f.Endpoint(0)
	if ep.RegionID() != 0 {
		t.Fatal("fresh endpoint has a region")
	}
	ep.SetRegion(3)
	if ep.RegionID() != 3 {
		t.Fatalf("RegionID = %d, want 3", ep.RegionID())
	}
	ep.SetRegion(0)
	if ep.RegionID() != 0 {
		t.Fatal("region not cleared")
	}
}

func TestFrontiers(t *testing.T) {
	f := NewFabric(2)
	ep0, ep1 := f.Endpoint(0), f.Endpoint(1)

	// A posted receive nothing was sent for.
	ep0.PostRecv(1, 7, make([]byte, 4), 50)
	posted := ep0.PostedFrontier()
	if len(posted) != 1 {
		t.Fatalf("posted frontier has %d entries, want 1", len(posted))
	}
	if posted[0].Src != 1 || posted[0].Tag != 7 || posted[0].PostV != 50 {
		t.Fatalf("posted frontier entry = %+v", posted[0])
	}

	// A sent message nothing received: lands on rank 0's unexpected queue.
	send(ep1, 0, 9, []byte{1, 2, 3, 4}, 60)
	unex := ep0.UnexpectedFrontier()
	if len(unex) != 1 {
		t.Fatalf("unexpected frontier has %d entries, want 1", len(unex))
	}
	if unex[0].Src != 1 || unex[0].Tag != 9 || unex[0].Bytes != 4 {
		t.Fatalf("unexpected frontier entry = %+v", unex[0])
	}

	// Matching traffic leaves both frontiers empty.
	g := NewFabric(2)
	r := g.Endpoint(0).PostRecv(1, 3, make([]byte, 4), 10)
	send(g.Endpoint(1), 0, 3, []byte{1, 2, 3, 4}, 20)
	r.Wait()
	r.Release()
	if len(g.Endpoint(0).PostedFrontier()) != 0 || len(g.Endpoint(0).UnexpectedFrontier()) != 0 {
		t.Fatal("matched traffic left a non-empty frontier")
	}
}

func TestFaultEventEmittedWithRegion(t *testing.T) {
	f := NewFabric(2)
	f.SetFaults(FaultConfig{Seed: 1, Drop: 1})
	f.EnableRecorder(16)
	src := f.Endpoint(1)
	src.SetRegion(f.InternRegion("exchange"))
	r := f.Endpoint(0).PostRecv(1, 7, make([]byte, 4), 5)
	send(src, 0, 7, []byte{1, 2, 3, 4}, 50)
	r.Wait()
	r.Release()

	var fault *Event
	for _, e := range f.Recorder().RankEvents(1) {
		if e.Kind == EvFault {
			e := e
			fault = &e
		}
	}
	if fault == nil {
		t.Fatal("no EvFault recorded on the sender")
	}
	if fault.Fault != transport.FaultDropped || fault.Peer != 0 || fault.Tag != 7 {
		t.Fatalf("fault event = %+v", fault)
	}
	if f.RegionLabel(fault.Region) != "exchange" {
		t.Fatalf("fault event region = %d (%q), want \"exchange\"",
			fault.Region, f.RegionLabel(fault.Region))
	}
}

func TestReportFailureDump(t *testing.T) {
	f := NewFabric(3)
	f.EnableRecorder(8)
	emitN(f, 0, 3)
	f.Endpoint(0).PostRecv(1, 7, make([]byte, 4), 40)
	rid := f.InternRegion("halo")

	pm := f.ReportFailure(FailingOp{
		Rank: 0, Op: "MPI recv", Peer: 1, Tag: 7,
		Region: rid, Kind: transport.FaultCancelled,
		Reason: "watchdog cancelled", V: 99,
	})
	if pm == nil {
		t.Fatal("ReportFailure returned nil")
	}
	if got := f.Postmortems(); len(got) != 1 || got[0] != pm {
		t.Fatalf("Postmortems() = %v", got)
	}
	// Both involved ranks are dumped, no one else.
	if len(pm.Ranks) != 2 {
		t.Fatalf("dumped %d ranks, want 2", len(pm.Ranks))
	}
	var r0 *RankDump
	for i := range pm.Ranks {
		if pm.Ranks[i].Rank == 0 {
			r0 = &pm.Ranks[i]
		}
	}
	if r0 == nil {
		t.Fatal("failing rank missing from dump")
	}
	if r0.Recorded != 3 || len(r0.Events) != 3 {
		t.Fatalf("rank 0 dump: recorded=%d events=%d, want 3/3", r0.Recorded, len(r0.Events))
	}
	if len(r0.Posted) != 1 || r0.Posted[0].Tag != 7 {
		t.Fatalf("rank 0 posted frontier = %+v", r0.Posted)
	}
	if pm.Labels[rid] != "halo" {
		t.Fatalf("labels = %v, want %d → halo", pm.Labels, rid)
	}

	// The human rendering names the op, the region and the frontier.
	s := pm.String()
	for _, want := range []string{"MPI recv", "halo", "cancelled", "recv src=1 tag=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// And the dump round-trips as JSON.
	b, err := json.Marshal(pm)
	if err != nil {
		t.Fatal(err)
	}
	var back Postmortem
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fail.Op != "MPI recv" || back.Fail.Region != rid {
		t.Fatalf("JSON round-trip lost the failing op: %+v", back.Fail)
	}
}

func TestPostmortemsBounded(t *testing.T) {
	f := NewFabric(2)
	for i := 0; i < maxPostmortems+5; i++ {
		f.ReportFailure(FailingOp{Rank: 0, Op: "x", Peer: 1, V: model.Time(i)})
	}
	if got := len(f.Postmortems()); got != maxPostmortems {
		t.Fatalf("kept %d postmortems, want %d", got, maxPostmortems)
	}
}
