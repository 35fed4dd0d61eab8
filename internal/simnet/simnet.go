// Package simnet provides the simulated interconnect fabric that the MPI-like
// and SHMEM-like substrates are built on.
//
// The fabric moves real bytes between ranks (goroutines) and attaches virtual
// timestamps to every message. It is deliberately cost-model-agnostic: the
// caller (the mpi and shmem packages) computes arrival and completion times
// from a model.Profile and hands them to the fabric. simnet's job is the
// mechanics — delivering two-sided messages into each rank's match table
// (transport.Table; the endpoint is this fabric's transport.Port), optional
// deterministic fault injection in front of it, a virtual-time max-reducing
// barrier, and an event stream for the trace package.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"commintent/internal/model"
	"commintent/internal/transport"
)

// Kept for the layer ladder only: benchmark/ takes its wire buffers with
// simnet.GetBuf and reads the pool counters with simnet.PoolStats. Product
// code uses the transport package, where the pool lives.
func GetBuf(n int) []byte             { return transport.GetBuf(n) }
func PoolStats() (hits, misses int64) { return transport.PoolStats() }

// EventKind labels an entry in the fabric's observer stream.
type EventKind int

const (
	EvSend EventKind = iota
	EvRecvPost
	EvRecvComplete
	EvPut
	EvGet
	EvBarrier
	EvWait
	EvSync
	// EvFault marks an injector verdict on a two-sided message: the payload
	// was ghosted (dropped or peer-dead) at send time. Emitted by the sender
	// at the message's send timestamp, so forensic timelines show the loss
	// where it was decided. Must stay last: telemetry sizes per-kind counter
	// tables as int(EvFault)+1.
	EvFault
)

func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvRecvPost:
		return "recv-post"
	case EvRecvComplete:
		return "recv-complete"
	case EvPut:
		return "put"
	case EvGet:
		return "get"
	case EvBarrier:
		return "barrier"
	case EvWait:
		return "wait"
	case EvSync:
		return "sync"
	case EvFault:
		return "fault"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one observable fabric operation, reported to observers.
type Event struct {
	Rank  int
	Kind  EventKind
	Peer  int
	Tag   int
	Bytes int
	V     model.Time // virtual time at which the op completed locally

	// Idle is the virtual time the operation spent blocked waiting for
	// remote progress (the AdvanceTo jump of waits, syncs and barriers).
	// Zero for non-blocking operations. The critical-path analyser sums
	// it into per-rank wait time.
	Idle model.Time

	// Region is the interned ID of the comm_parameters directive region that
	// issued the operation (see Fabric.InternRegion); 0 means unattributed.
	Region int

	// Fault is the injector verdict carried by EvFault events; FaultNone
	// everywhere else.
	Fault transport.FaultKind
}

// Observer receives fabric events. Observers must be fast and must not call
// back into the fabric.
type Observer func(Event)

// Fabric is one simulated machine: N endpoints plus a world barrier.
type Fabric struct {
	n       int
	eps     []*Endpoint
	barrier *Barrier

	// inj is the optional deterministic fault injector (see fault.go).
	// Installed once by SetFaults before rank goroutines start; nil on a
	// healthy fabric, so the only injection-off cost is one nil check per
	// send.
	inj *injector

	obsMu     sync.Mutex                 // serializes Observe registrations
	observers atomic.Pointer[[]Observer] // read lock-free on every Emit

	// rec is the optional event and span recorder (see recorder.go).
	// Installed once by EnableRecorder or SpanRecorder before rank
	// goroutines start; nil on an unobserved fabric, so recording costs
	// nothing when disabled.
	rec *Recorder

	// Directive-region label interning. Region IDs on events, spans and
	// metrics are small dense ints so attribution costs an int store, not a
	// string; labels resolve back through this table. ID 0 is reserved for
	// the empty label (unattributed traffic). Writers serialize on regMu and
	// publish a fresh snapshot; readers (RegionLabel on every recorded event
	// at 64k ranks) load the snapshot without taking any lock.
	regMu    sync.Mutex
	regSnap  atomic.Pointer[[]string]
	regIndex map[string]int

	// Post-mortem dumps captured by ReportFailure, bounded so a fault storm
	// cannot hoard memory.
	pmMu sync.Mutex
	pms  []*Postmortem
}

// NewFabric creates a fabric with n ranks and a flat world barrier.
func NewFabric(n int) *Fabric {
	return NewFabricTopo(n, nil)
}

// NewFabricTopo creates a fabric whose world barrier groups check-ins
// hierarchically when nodeOf is non-nil: nodeOf maps a rank to its node ID,
// and the barrier runs node-local combining phases that feed a radix tree
// over node leaders (see NewBarrierTopo). A nil nodeOf yields NewBarrier's
// rank-order shape, which is bit-identical in virtual time either way.
//
// Endpoints are arena-allocated in one contiguous slice: at 64k ranks,
// bring-up makes one allocation instead of 64k, and the matching state of
// neighbouring ranks shares cache lines during delivery fan-in.
func NewFabricTopo(n int, nodeOf func(rank int) int) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("simnet: fabric size %d", n))
	}
	f := &Fabric{
		n:        n,
		barrier:  NewBarrierTopo(n, nodeOf),
		regIndex: map[string]int{"": 0},
	}
	snap := []string{""}
	f.regSnap.Store(&snap)
	f.eps = make([]*Endpoint, n)
	// An endpoint's waits park at once at every P, not by the one-P spin of
	// transport.WaitSpin: on this cooperative fabric the spin moved the
	// message queues' one-time growth past the warm-up of the replayed-region
	// allocation guards (DESIGN §10.1), and no measured workload waits here.
	arena := make([]Endpoint, n)
	for i := range f.eps {
		arena[i].f, arena[i].rank = f, i
		arena[i].hdr.Gate.Init(0)
		f.eps[i] = &arena[i]
	}
	return f
}

// Size reports the number of ranks.
func (f *Fabric) Size() int { return f.n }

// Endpoint returns rank r's endpoint.
func (f *Fabric) Endpoint(r int) *Endpoint {
	return f.eps[r]
}

// WorldBarrier returns the fabric-wide barrier.
func (f *Fabric) WorldBarrier() *Barrier { return f.barrier }

// Observe registers an observer for all fabric events. Safe to call before
// ranks start; registering mid-run is allowed but events may be missed.
func (f *Fabric) Observe(o Observer) {
	f.obsMu.Lock()
	defer f.obsMu.Unlock()
	var obs []Observer
	if p := f.observers.Load(); p != nil {
		obs = append(obs, *p...)
	}
	obs = append(obs, o)
	f.observers.Store(&obs)
}

// Observed reports whether any observer is registered. Hot paths check it
// before even constructing an Event.
func (f *Fabric) Observed() bool { return f.observers.Load() != nil }

// Emit publishes an event to all observers. The substrates call this; user
// code normally does not. With no observers registered it is a single
// atomic load, so instrumentation points may call it unconditionally.
func (f *Fabric) Emit(e Event) {
	p := f.observers.Load()
	if p == nil {
		return
	}
	for _, o := range *p {
		o(e)
	}
}

// InternRegion maps a directive-region label to its dense ID, assigning one
// on first use. The empty label is ID 0. Safe for concurrent use; callers on
// hot paths should cache the result (labels are stable for a fabric's life).
func (f *Fabric) InternRegion(label string) int {
	f.regMu.Lock()
	defer f.regMu.Unlock()
	if id, ok := f.regIndex[label]; ok {
		return id
	}
	old := *f.regSnap.Load()
	id := len(old)
	// Copy-on-write: readers hold the old snapshot; the new one becomes
	// visible atomically with the appended label in place.
	labels := make([]string, id+1)
	copy(labels, old)
	labels[id] = label
	f.regSnap.Store(&labels)
	f.regIndex[label] = id
	return id
}

// RegionLabel resolves an interned region ID back to its label; unknown IDs
// (including 0) resolve to "". Lock-free: safe on per-event hot paths.
func (f *Fabric) RegionLabel(id int) string {
	labels := *f.regSnap.Load()
	if id < 0 || id >= len(labels) {
		return ""
	}
	return labels[id]
}

// RegionLabels snapshots the intern table, indexed by region ID. The
// returned slice is immutable shared state; callers must not modify it.
func (f *Fabric) RegionLabels() []string {
	return *f.regSnap.Load()
}
