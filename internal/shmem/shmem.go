// Package shmem is a from-scratch, OpenSHMEM-flavoured one-sided library
// over the simulated machine: a symmetric heap, typed put/get, memory
// ordering (fence/quiet), barriers and point-to-point wait_until. It is the
// backend the directive layer's TARGET_COMM_SHMEM translates to.
//
// Symmetry is enforced the way real SHMEM enforces it: allocation is
// collective, every PE must allocate in the same order with the same size
// and element type, and violations are reported as errors. Data movement is
// real (bytes land in the target PE's slice); performance is charged to the
// virtual clock with the one-sided cost parameters of the machine profile,
// which are substantially cheaper per small message than the two-sided MPI
// path — the property the paper's Figure 4 exploits.
package shmem

import (
	"fmt"
	"sync"
	"time"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
	"commintent/internal/transport"
)

// Elem constrains the element types the symmetric heap supports.
type Elem interface {
	~int32 | ~int64 | ~float32 | ~float64 | ~uint8 | ~uint64
}

// Cmp is a wait_until comparison operator.
type Cmp int

const (
	CmpEQ Cmp = iota
	CmpNE
	CmpGT
	CmpGE
	CmpLT
	CmpLE
)

func (c Cmp) String() string {
	switch c {
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	default:
		return fmt.Sprintf("cmp(%d)", int(c))
	}
}

func satisfies[T Elem](v T, c Cmp, w T) bool {
	switch c {
	case CmpEQ:
		return v == w
	case CmpNE:
		return v != w
	case CmpGT:
		return v > w
	case CmpGE:
		return v >= w
	case CmpLT:
		return v < w
	case CmpLE:
		return v <= w
	default:
		return false
	}
}

// worldState is the per-world shared symmetric table plus per-PE RMA
// signal boards.
type worldState struct {
	mu      sync.Mutex
	entries []*entry
	rma     []*rmaBoard
}

type entry struct {
	mu        sync.Mutex
	per       []any // per PE: []T
	resolved  any   // *symTable[T] shared by every PE's Slice, built at Alloc
	elemBytes int
	n         int
	typeName  string
}

// rmaBoard serialises one-sided traffic arriving at a PE (puts, atomics and
// each allocation's signal log) and wakes its wait_until. Only the owning PE
// ever waits on its board, and it waits on one thing at a time, so the
// board's one transport.Gate, bound to the PE's task, serves every wait: a
// writer publishes under mu, then wakes the gate, which with no one waiting
// is one load. The gate's wait takes a deadline, which is what makes
// WaitUntilTimeout possible (a sync.Cond wait cannot be interrupted).
type rmaBoard struct {
	mu   sync.Mutex
	gate transport.Gate
}

func state(w *spmd.World) *worldState {
	ws := w.Shared("shmem/worldState", func() any {
		s := &worldState{rma: make([]*rmaBoard, w.Size())}
		for i := range s.rma {
			s.rma[i] = &rmaBoard{}
			s.rma[i].gate.Bind(w.Task(i))
		}
		return s
	}).(*worldState)
	return ws
}

// DefaultWatchdog is the real-time backstop armed by WaitUntilTimeout when
// the context has no explicit watchdog configured.
const DefaultWatchdog = 10 * time.Second

// Ctx is one PE's handle on the SHMEM world.
type Ctx struct {
	rk     *spmd.Rank
	ws     *worldState
	nextID int

	outstanding model.Time // max arrival time of this PE's unquieted puts

	wdog time.Duration // real-time watchdog for WaitUntilTimeout; 0 = default

	tele ctxTele // metric handles; all nil (no-op) when telemetry is off
}

// SetWatchdog overrides the real-time watchdog armed by WaitUntilTimeout
// (DefaultWatchdog when zero).
func (c *Ctx) SetWatchdog(d time.Duration) { c.wdog = d }

func (c *Ctx) watchdog() time.Duration {
	if c.wdog > 0 {
		return c.wdog
	}
	return DefaultWatchdog
}

// ctxTele caches this PE's telemetry handles.
type ctxTele struct {
	tr          *telemetry.Tracer
	fences      *telemetry.Counter
	quiets      *telemetry.Counter
	quietElided *telemetry.Counter // quiets whose epoch had no outstanding puts
	barriers    *telemetry.Counter
	idle        *telemetry.Counter // blocked virtual ns in quiet/barrier/wait_until
	putBytes    *telemetry.Counter // one-sided bytes put to remote PEs
	getBytes    *telemetry.Counter // one-sided bytes fetched from remote PEs
	amos        *telemetry.Counter // atomic memory operations
}

// New initialises SHMEM for this rank (the analogue of shmem_init).
func New(rk *spmd.Rank) *Ctx {
	c := &Ctx{rk: rk, ws: state(rk.World())}
	if t := rk.World().Telemetry(); t != nil {
		reg := t.Registry()
		r := telemetry.Rank(rk.ID)
		c.tele = ctxTele{
			tr:          t.Tracer(),
			fences:      reg.Counter("shmem_fence_total", r),
			quiets:      reg.Counter("shmem_quiet_total", r),
			quietElided: reg.Counter("shmem_quiet_elided_total", r),
			barriers:    reg.Counter("shmem_barrier_total", r),
			idle:        reg.Counter("shmem_idle_virtual_ns_total", r),
			putBytes:    reg.Counter("shmem_put_bytes_total", r),
			getBytes:    reg.Counter("shmem_get_bytes_total", r),
			amos:        reg.Counter("shmem_amo_total", r),
		}
	}
	return c
}

// MyPE reports this PE's id.
func (c *Ctx) MyPE() int { return c.rk.ID }

// NPEs reports the number of PEs.
func (c *Ctx) NPEs() int { return c.rk.N }

// SPMD returns the underlying rank context.
func (c *Ctx) SPMD() *spmd.Rank { return c.rk }

func (c *Ctx) prof() *model.Profile { return c.rk.Profile() }
func (c *Ctx) clock() *model.Clock  { return c.rk.Clock() }

// emit publishes a fabric event stamped with the PE's current directive
// region, mirroring the mpi substrate's attribution. One atomic load when
// unobserved.
func (c *Ctx) emit(e simnet.Event) {
	f := c.rk.World().Fabric()
	if !f.Observed() {
		return
	}
	e.Region = c.rk.Endpoint().RegionID()
	f.Emit(e)
}

// span opens a region-attributed tracer span (no-op handle when telemetry
// is disabled).
func (c *Ctx) span(name string, start model.Time) telemetry.SpanHandle {
	if c.tele.tr == nil {
		return telemetry.SpanHandle{}
	}
	return c.tele.tr.BeginRegion(c.rk.ID, name, "shmem", start, c.rk.Endpoint().RegionID())
}

// notePut records an outbound put for Quiet accounting.
func (c *Ctx) notePut(arrive model.Time) {
	if arrive > c.outstanding {
		c.outstanding = arrive
	}
}

// Quiet blocks (in virtual time) until all of this PE's outstanding puts
// are remotely complete. A quiet issued with no outstanding puts — the
// epoch is already quiesced — is elided: the network has nothing to drain,
// so the call costs nothing and only the elision counter moves. Elision is
// a purely PE-local decision (outstanding is PE-local state), so virtual
// time stays deterministic.
func (c *Ctx) Quiet() {
	if c.outstanding == 0 {
		c.tele.quiets.Inc()
		c.tele.quietElided.Inc()
		return
	}
	clk := c.clock()
	sp := c.span("shmem_quiet", clk.Now())
	clk.Advance(c.prof().ShmemQuiet)
	idle := c.outstanding - clk.Now()
	if idle < 0 {
		idle = 0
	}
	clk.AdvanceTo(c.outstanding)
	c.outstanding = 0
	c.tele.quiets.Inc()
	c.tele.idle.AddTime(idle)
	sp.End(clk.Now())
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvSync, Peer: -1, V: clk.Now(), Idle: idle})
}

// Fence orders this PE's puts per destination without waiting for remote
// completion. With this simulator's in-order delivery it is purely a cost.
func (c *Ctx) Fence() {
	c.clock().Advance(c.prof().ShmemFence)
	c.tele.fences.Inc()
}

// BarrierAll synchronises all PEs and implies a Quiet.
func (c *Ctx) BarrierAll() {
	clk := c.clock()
	sp := c.span("shmem_barrier_all", clk.Now())
	enter := model.Max(clk.Now(), c.outstanding)
	maxV := c.rk.World().Fabric().WorldBarrier().Wait(c.MyPE(), enter)
	idle := maxV - clk.Now()
	if idle < 0 {
		idle = 0
	}
	clk.AdvanceTo(maxV)
	clk.Advance(c.prof().ShmemBarrierTime(c.NPEs()))
	c.outstanding = 0
	c.tele.barriers.Inc()
	c.tele.idle.AddTime(idle)
	sp.End(clk.Now())
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvBarrier, Peer: -1, V: clk.Now(), Idle: idle})
}

// teamBarriers caches simnet barriers for PE subsets.
type teamBarriers struct {
	mu sync.Mutex
	m  map[string]*simnet.Barrier
}

// TeamBarrier synchronises the listed PEs (which must include the caller)
// and implies a Quiet for the caller. It is the analogue of the strided
// shmem_barrier, generalised to an explicit PE list; all listed PEs must
// call it with the same list.
func (c *Ctx) TeamBarrier(pes []int) error {
	found := false
	for _, p := range pes {
		if p == c.MyPE() {
			found = true
		}
		if p < 0 || p >= c.NPEs() {
			return fmt.Errorf("shmem: TeamBarrier: PE %d out of range", p)
		}
	}
	if !found {
		return fmt.Errorf("shmem: TeamBarrier: caller PE %d not in team", c.MyPE())
	}
	tb := c.rk.World().Shared("shmem/teamBarriers", func() any {
		return &teamBarriers{m: make(map[string]*simnet.Barrier)}
	}).(*teamBarriers)
	key := fmt.Sprint(pes)
	tb.mu.Lock()
	b, ok := tb.m[key]
	if !ok {
		b = simnet.NewBarrier(len(pes))
		b.Bind(func(i int) *transport.Task { return c.rk.World().Task(pes[i]) })
		tb.m[key] = b
	}
	tb.mu.Unlock()
	me := 0
	for i, p := range pes {
		if p == c.MyPE() {
			me = i
			break
		}
	}
	clk := c.clock()
	enter := model.Max(clk.Now(), c.outstanding)
	maxV := b.Wait(me, enter)
	if idle := maxV - clk.Now(); idle > 0 {
		c.tele.idle.AddTime(idle)
	}
	clk.AdvanceTo(maxV)
	clk.Advance(c.prof().ShmemBarrierTime(len(pes)))
	c.outstanding = 0
	c.tele.barriers.Inc()
	return nil
}
