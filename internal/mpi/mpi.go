// Package mpi is a from-scratch, MPI-flavoured two-sided message-passing
// library over the simulated fabric. It provides the subset of MPI the
// paper's original WL-LSMS code paths use — blocking and non-blocking
// point-to-point with tags and wildcards, Wait/Waitall/Waitany/Test,
// Pack/Unpack, derived struct datatypes, the collectives the application
// driver needs, communicator splitting, and MPI-2 style one-sided windows —
// with every call charged to the rank's virtual clock according to the
// machine profile.
//
// It is intentionally a *library*, not a binding: the whole point of the
// reproduced paper is that code written directly against this interface
// obscures its intent, and the directive layer (internal/core) recovers it.
package mpi

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
	"commintent/internal/transport"
)

// MaxUserTag bounds user-supplied tags so communicators can partition the
// fabric's tag space.
const MaxUserTag = 1 << 20

// tagSpan is the total tag window reserved per communicator. Only the lower
// MaxUserTag tags carry traffic; the span fixes every communicator's tag
// base and the fault injector's tag scope (P2PFaultScope).
const tagSpan = 2 * MaxUserTag

// Comm is a communicator: an ordered group of world ranks with a private
// tag space and its own barrier, on which Barrier, Win.Fence and every
// collective rendezvous.
type Comm struct {
	// Hot group: the barrier path reads exactly these fields once per rank
	// per whole-world operation. With a world of per-rank Comms live the
	// working set — not the instruction count — decides cache behaviour,
	// so they are clustered at the top of the struct (tele's first field
	// is the tracer handle the observe check loads).
	myIdx   int // this rank's position in ranks
	barrier *simnet.Barrier
	barCost model.Time     // prof().BarrierTime(Size()), fixed per communicator
	clk     *model.Clock   // cached rk.Clock(): the barrier path is O(ranks) calls hot
	fab     *simnet.Fabric // cached rk.World().Fabric()
	port    transport.Port // the two-sided data plane (simnet or shared-memory)
	wall    bool           // clock is wall-time: skip cost arithmetic, measure instead
	traced  bool           // tele.tr != nil, duplicated onto the hot line

	bufs    *transport.Headers // the port's wire buffers
	rk      *spmd.Rank
	ranks   []int       // world ranks of the members, in comm-rank order
	commOf  map[int]int // world rank → comm rank; nil on the world, where it is the identity
	id      string
	tagBase int
	csh     *collShared // shared collective rendezvous area

	splitSeq int // per-rank count of Split calls, for scratch key derivation
	winSeq   int // per-rank count of WinCreate calls

	// Deadline policy (see deadline.go). defTimeout gives blocking
	// completions an implicit virtual deadline; wdog overrides the
	// real-time watchdog backstopping deadline-aware waits.
	defTimeout model.Time
	wdog       time.Duration

	tele commTele // metric handles; all nil (no-op) when telemetry is off
}

// commTele caches this rank's telemetry handles so the per-operation cost
// is an atomic add (or a nil check when telemetry is disabled).
type commTele struct {
	tr     *telemetry.Tracer
	reg    *telemetry.Registry  // for lazily-created per-region series
	idle   *telemetry.Counter   // blocked virtual ns in waits/barriers
	waitNS *telemetry.Histogram // per-wait blocked time distribution
	// waitByReg lazily caches per-region wait histograms keyed by interned
	// region ID. Only this rank's goroutine touches the map, so it needs no
	// lock; cardinality is bounded by the number of distinct region labels.
	waitByReg map[int]*telemetry.Histogram
	stalls    *telemetry.Counter // rendezvous sends that blocked on the match
	stallNS   *telemetry.Counter // total rendezvous stall virtual ns
	barriers  *telemetry.Counter // MPI_Barrier calls
	barIdle   *telemetry.Counter // virtual ns blocked inside barriers

	collCalls *telemetry.Counter // collective invocations

	rmaPutBytes    *telemetry.Counter // one-sided bytes put into windows
	rmaGetBytes    *telemetry.Counter // one-sided bytes read from windows
	rmaFences      *telemetry.Counter // fence waves executed
	rmaFenceElided *telemetry.Counter // waves whose windows were all quiesced

	faultLost     *telemetry.Counter // operations failed with ErrMessageLost
	faultDead     *telemetry.Counter // operations failed with ErrPeerDead
	faultDeadline *telemetry.Counter // operations failed with ErrDeadline
}

// initTele resolves the communicator's metric handles from the world's
// telemetry. Handles are shared across communicators of the same rank.
func (c *Comm) initTele() {
	t := c.rk.World().Telemetry()
	if t == nil {
		return
	}
	reg := t.Registry()
	r := telemetry.Rank(c.rk.ID)
	c.tele = commTele{
		tr:       t.Tracer(),
		reg:      reg,
		idle:     reg.Counter("mpi_idle_virtual_ns_total", r),
		waitNS:   reg.Histogram("mpi_wait_virtual_ns", r),
		stalls:   reg.Counter("mpi_rendezvous_stalls_total", r),
		stallNS:  reg.Counter("mpi_rendezvous_stall_virtual_ns_total", r),
		barriers: reg.Counter("mpi_barrier_calls_total", r),
		barIdle:  reg.Counter("mpi_barrier_idle_virtual_ns_total", r),

		collCalls: reg.Counter("mpi_coll_calls_total", r),

		rmaPutBytes:    reg.Counter("mpi_rma_put_bytes_total", r),
		rmaGetBytes:    reg.Counter("mpi_rma_get_bytes_total", r),
		rmaFences:      reg.Counter("mpi_rma_fence_total", r),
		rmaFenceElided: reg.Counter("mpi_rma_fence_elided_total", r),

		faultLost:     reg.Counter("mpi_fault_message_lost_total", r),
		faultDead:     reg.Counter("mpi_fault_peer_dead_total", r),
		faultDeadline: reg.Counter("mpi_fault_deadline_total", r),
	}
	c.traced = c.tele.tr != nil
}

// World returns the world communicator for this rank. All ranks of the run
// must call it (it is collective only in the trivial sense that the barrier
// and tag base are shared world structures).
func World(rk *spmd.Rank) *Comm {
	c := &Comm{
		rk:      rk,
		ranks:   worldRanks(rk.World()),
		myIdx:   rk.ID,
		id:      "world",
		barrier: rk.World().Fabric().WorldBarrier(),
	}
	c.barCost = rk.Profile().BarrierTime(rk.N)
	c.clk = rk.Clock()
	c.fab = rk.World().Fabric()
	c.port = rk.Port()
	c.bufs = c.port.Headers()
	c.wall = c.clk.Wall()
	c.tagBase = tagBaseFor(rk.World(), c.id)
	c.csh = collFor(c)
	c.initTele()
	return c
}

// worldRanks returns the world's shared identity rank slice. Every rank's
// world communicator aliases this one read-only slice: at 64k ranks a
// per-rank copy would cost n² ints (32 GiB of rank tables) before the first
// message moves.
func worldRanks(w *spmd.World) []int {
	return w.Shared("mpi/worldRanks", func() any { return identity(w.Size()) }).([]int)
}

func identity(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// commRegistry holds world-shared per-communicator structures.
type commRegistry struct {
	mu       sync.Mutex
	tagBases map[string]int
	nextBase int
	barriers map[string]*simnet.Barrier
	scratch  map[string][]splitEntry
	coll     map[string]*collShared
}

type splitEntry struct {
	color, key, worldRank int
	set                   bool
}

func registry(w *spmd.World) *commRegistry {
	return w.Shared("mpi/commRegistry", func() any {
		return &commRegistry{
			tagBases: make(map[string]int),
			barriers: make(map[string]*simnet.Barrier),
			scratch:  make(map[string][]splitEntry),
			coll:     make(map[string]*collShared),
		}
	}).(*commRegistry)
}

func tagBaseFor(w *spmd.World, id string) int {
	reg := registry(w)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if b, ok := reg.tagBases[id]; ok {
		return b
	}
	b := reg.nextBase
	reg.nextBase += tagSpan
	reg.tagBases[id] = b
	return b
}

// barrierFor returns the shared barrier for communicator id, creating it on
// first use. On a hierarchical topology the barrier groups check-ins by the
// node each member world rank lives on, so sub-communicator barriers get the
// same node-local combining as the world barrier. ranks must be the
// communicator's world-rank table, identical on every calling rank.
func barrierFor(w *spmd.World, id string, ranks []int) *simnet.Barrier {
	reg := registry(w)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if b, ok := reg.barriers[id]; ok {
		return b
	}
	var nodeOf func(int) int
	if h, ok := w.Profile().Topo.(model.Hierarchical); ok {
		nodeOf = func(i int) int { return h.NodeOf(ranks[i]) }
	}
	b := simnet.NewBarrierTopo(len(ranks), nodeOf)
	reg.barriers[id] = b
	return b
}

// Rank reports this process's rank within the communicator.
func (c *Comm) Rank() int { return c.myIdx }

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a comm rank to the underlying world rank.
func (c *Comm) WorldRank(commRank int) int {
	if commRank == transport.AnySource {
		return transport.AnySource
	}
	return c.ranks[commRank]
}

// commRankOf translates a world rank to a comm rank (-1 if not a member),
// at every receive completion.
func (c *Comm) commRankOf(worldRank int) int {
	if c.commOf == nil {
		return worldRank
	}
	if i, ok := c.commOf[worldRank]; ok {
		return i
	}
	return -1
}

// SPMD returns the underlying rank context.
func (c *Comm) SPMD() *spmd.Rank { return c.rk }

// ID returns the communicator's stable identifier.
func (c *Comm) ID() string { return c.id }

func (c *Comm) prof() *model.Profile   { return c.rk.Profile() }
func (c *Comm) ep() *simnet.Endpoint   { return c.rk.Endpoint() }
func (c *Comm) clock() *model.Clock    { return c.clk }
func (c *Comm) fabric() *simnet.Fabric { return c.fab }

// stamp is the one place p2p, request completion and collectives read the
// rank clock for a timestamp. On the virtual clock that is the model's time,
// which every charge and golden is made of. On the wall clock a reading is a
// monotonic-clock call, and its only readers are telemetry (spans, idle and
// wait histograms, stall counters) and fabric observers (events, the flight
// recorder): with neither attached every stamp is 0 and none is read. A
// world attaches both before its ranks start, so the stamps of one run are
// all read or all 0; matching never compares them on the wall clock (see
// Request.Unexpected).
func (c *Comm) stamp() model.Time {
	if c.wall && c.tele.reg == nil && !c.fab.Observed() {
		return 0
	}
	return c.clk.Now()
}

// emit publishes a fabric event stamped with the rank's current directive
// region, so every trace entry is attributable to the causing directive. The
// unobserved path is one atomic load, same as Fabric.Emit itself.
func (c *Comm) emit(e simnet.Event) {
	if !c.fab.Observed() {
		return
	}
	e.Region = c.ep().RegionID()
	c.fab.Emit(e)
}

// span opens a region-attributed tracer span (a no-op handle when telemetry
// is disabled, without loading the region).
func (c *Comm) span(name string, start model.Time) telemetry.SpanHandle {
	if c.tele.tr == nil {
		return telemetry.SpanHandle{}
	}
	return c.tele.tr.BeginRegion(c.rk.ID, name, "mpi", start, c.ep().RegionID())
}

// observeRegionWait adds one wait's blocked time to the per-region wait
// histogram, lazily materialising the series on a region's first wait.
func (c *Comm) observeRegionWait(idle model.Time) {
	if c.tele.reg == nil {
		return
	}
	rid := c.ep().RegionID()
	if rid == 0 {
		return
	}
	h := c.tele.waitByReg[rid]
	if h == nil {
		if c.tele.waitByReg == nil {
			c.tele.waitByReg = make(map[int]*telemetry.Histogram)
		}
		h = c.tele.reg.Histogram("mpi_wait_virtual_ns_by_region",
			telemetry.Rank(c.rk.ID), telemetry.L("region", c.fab.RegionLabel(rid)))
		c.tele.waitByReg[rid] = h
	}
	h.Observe(idle)
}

func (c *Comm) wireTag(userTag int) int { return c.tagBase + userTag }
func (c *Comm) checkTag(tag int) error {
	if tag != transport.AnyTag && (tag < 0 || tag >= MaxUserTag) {
		return fmt.Errorf("mpi: tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	return nil
}

// Barrier blocks until every rank of the communicator has entered it, and
// charges the modelled barrier cost.
func (c *Comm) Barrier() {
	clk := c.clk
	enter := clk.Now()
	maxV := c.barrier.Wait(c.myIdx, enter)
	// maxV >= enter always, so AdvanceTo(maxV)+Advance(barCost) is one Set.
	after := maxV + c.barCost
	clk.Set(after)
	if c.traced || c.fab.Observed() {
		c.barrierObserve(enter, maxV, after)
	}
}

// barrierObserve reports a completed barrier to the tracer, metrics, and
// fabric observers. Kept out of Barrier so the uninstrumented path pays no
// span-handle or event construction; the span is recorded after the fact
// with its true start time, which is indistinguishable from opening it
// before the wait (the wait itself opens no spans).
func (c *Comm) barrierObserve(enter, maxV, after model.Time) {
	sp := c.span("MPI_Barrier", enter)
	idle := maxV - enter
	if idle > 0 {
		c.tele.idle.AddTime(idle)
		c.tele.barIdle.AddTime(idle)
	} else {
		idle = 0
	}
	c.tele.barriers.Inc()
	sp.End(after)
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvBarrier, Peer: -1, V: after, Idle: idle})
}

// Split partitions the communicator by color, ordering each new group by
// (key, old rank), exactly like MPI_Comm_split. Every member must call it.
// Ranks passing a negative color receive a nil communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	c.splitSeq++
	scratchKey := fmt.Sprintf("split/%s/%d", c.id, c.splitSeq)
	reg := registry(c.rk.World())

	reg.mu.Lock()
	sc, ok := reg.scratch[scratchKey]
	if !ok {
		sc = make([]splitEntry, c.Size())
		reg.scratch[scratchKey] = sc
	}
	sc[c.myIdx] = splitEntry{color: color, key: key, worldRank: c.rk.ID, set: true}
	reg.mu.Unlock()

	// Everyone must have contributed before anyone reads.
	c.Barrier()

	reg.mu.Lock()
	entries := make([]splitEntry, len(sc))
	copy(entries, reg.scratch[scratchKey])
	reg.mu.Unlock()

	for i, e := range entries {
		if !e.set {
			return nil, fmt.Errorf("mpi: Split: rank %d never contributed", i)
		}
	}
	if color < 0 {
		c.Barrier() // match the trailing barrier of participating ranks
		return nil, nil
	}
	type member struct{ key, oldRank, worldRank int }
	var members []member
	for old, e := range entries {
		if e.color == color {
			members = append(members, member{e.key, old, e.worldRank})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].oldRank < members[j].oldRank
	})
	nc := &Comm{
		rk: c.rk,
		id: fmt.Sprintf("%s/%d/c%d", c.id, c.splitSeq, color),
	}
	nc.ranks = make([]int, len(members))
	nc.commOf = make(map[int]int, len(members))
	for i, m := range members {
		nc.ranks[i] = m.worldRank
		nc.commOf[m.worldRank] = i
		if m.worldRank == c.rk.ID {
			nc.myIdx = i
		}
	}
	nc.tagBase = tagBaseFor(c.rk.World(), nc.id)
	nc.barrier = barrierFor(c.rk.World(), nc.id, nc.ranks)
	nc.barCost = c.prof().BarrierTime(len(nc.ranks))
	nc.clk = c.clk
	nc.fab = c.fab
	nc.port = c.port
	nc.bufs = c.bufs
	nc.wall = c.wall
	nc.defTimeout = c.defTimeout
	nc.wdog = c.wdog
	nc.csh = collFor(nc)
	nc.initTele()
	// The trailing barrier keeps the parent's ranks in lockstep, matching
	// MPI_Comm_split's synchronising behaviour.
	c.Barrier()
	return nc, nil
}
