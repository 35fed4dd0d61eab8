package mpi

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"commintent/internal/model"
	"commintent/internal/simnet"
	"commintent/internal/typemap"
)

// Win is an MPI-2 style one-sided communication window: every rank of the
// communicator exposes a local buffer; Put and Get move data directly
// between origin buffers and exposed remote memory; Fence separates access
// epochs. This is the backend the directive layer's TARGET_COMM_MPI_1SIDE
// translates to.
//
// The data plane rides the typemap raw-view machinery: window buffers are
// resolved to raw byte views once, at creation, so a steady-state Put is a
// handle load, a type check, and one lock-free bulk copy — no reflection,
// no allocation, no mutex (the per-target locks exist only under the race
// detector; see race_off.go for why dropping them is sound for legal MPI
// programs). Any fixed-width primitive slice and any
// []struct of fixed-width scalars qualifies; pointer-bearing composites
// are rejected at creation (the paper's rule — remote memory cannot carry
// local addresses). In purego builds, or when the views are unavailable,
// every transfer falls back to the reflection copy path, which stays the
// correctness oracle.
//
// Window buffers must remain owned by the caller for the window's
// lifetime: memory obtained from the simnet payload pool (GetBuf) must not
// be returned with PutBuf while a window exposes it, since the resolved
// views alias the backing array and a recycled buffer would be scribbled
// on by unrelated traffic.
type Win struct {
	comm *Comm
	slot *winSlot
	idx  int // this rank's comm rank, cached
	seq  int // creation sequence within the communicator

	// Per-target completion tracking: outstanding[t] is the max arrival
	// time of this rank's unfenced/unflushed puts to target t, touched
	// lists the targets with a non-zero entry, and maxOut is the high
	// water over all of them (the fence entry time).
	outstanding []model.Time
	touched     []int
	maxOut      model.Time

	// Fence-elision epoch state. Fences are collective, so every rank
	// advances epoch in lockstep; curPuts/prevPuts are this rank's put
	// counts in the open and previous epochs, and lastTotal is the folded
	// world-total put count through the previous fence (identical on all
	// ranks — see Fence).
	epoch     int
	curPuts   int64
	prevPuts  int64
	lastTotal int64
}

// Seq reports the window's creation sequence number within its
// communicator; since window creation is collective, all ranks agree on it.
func (w *Win) Seq() int { return w.seq }

// rawView is one rank's exposed buffer resolved for the bulk-copy path.
type rawView struct {
	bytes []byte       // raw backing bytes (nil in purego builds)
	typ   reflect.Type // dynamic slice type, for the origin type check
	esz   int          // in-memory element size
	n     int          // element count
}

// winShard is a per-target copy lock, padded to its own cache line so
// concurrent puts to distinct targets do not false-share. The locks are
// taken only when raceDetector is set; normal builds copy lock-free.
type winShard struct {
	mu sync.Mutex
	_  [56]byte
}

type winSlot struct {
	mu   sync.Mutex
	bufs []any // per comm rank: the exposed slice

	resolveOnce sync.Once
	views       []rawView  // resolved from bufs after the creation barrier
	shards      []winShard // per-target copy locks

	// Fence parity cells: cumulative put-count folds, one per fence-epoch
	// parity. Each rank atomically adds its (previous + current) epoch put
	// counts to cell[epoch%2] before entering the fence barrier, so after
	// the barrier the cell holds the exact cumulative world total through
	// the closing epoch. Two of the window's fences separate reuses of a
	// cell, and each is a full barrier wave even when other windows share
	// it, so the post-barrier read cannot race the next adds.
	puts [2]atomic.Int64
}

type winRegistry struct {
	mu    sync.Mutex
	slots map[string]*winSlot
}

func winReg(c *Comm) *winRegistry {
	return c.rk.World().Shared("mpi/winRegistry", func() any {
		return &winRegistry{slots: make(map[string]*winSlot)}
	}).(*winRegistry)
}

// winBufCheck validates a window buffer: any fixed-width primitive slice,
// or a []struct whose fields the typemap layout rules admit (fixed-width
// scalars and fixed arrays of them; no pointers, no nesting).
func winBufCheck(local any) error {
	switch local.(type) {
	case []float64, []float32, []int64, []int32, []int16, []int8,
		[]uint64, []uint32, []uint16, []byte:
		return nil
	}
	t := reflect.TypeOf(local)
	if t == nil || t.Kind() != reflect.Slice {
		return fmt.Errorf("mpi: WinCreate: unsupported window buffer type %T (want a fixed-width primitive slice or []struct of fixed-width scalars)", local)
	}
	if t.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("mpi: WinCreate: unsupported window buffer type %T (want a fixed-width primitive slice or []struct of fixed-width scalars)", local)
	}
	if _, err := typemap.LayoutOf(t.Elem()); err != nil {
		return fmt.Errorf("mpi: WinCreate: window element type %s: %w", t.Elem(), err)
	}
	return nil
}

// WinCreate collectively creates a window exposing local on every rank.
// local may be any fixed-width primitive slice ([]float64, []int32,
// []uint16, ...) or a []struct of fixed-width scalars; pointer-bearing
// element types are rejected. All ranks of the communicator must call it
// in the same order. The buffer must stay caller-owned for the window's
// lifetime (in particular, do not PutBuf pooled memory exposed here).
func (c *Comm) WinCreate(local any) (*Win, error) {
	if err := winBufCheck(local); err != nil {
		return nil, err
	}
	c.winSeq++
	key := fmt.Sprintf("win/%s/%d", c.id, c.winSeq)
	reg := winReg(c)
	reg.mu.Lock()
	slot, ok := reg.slots[key]
	if !ok {
		slot = &winSlot{bufs: make([]any, c.Size()), shards: make([]winShard, c.Size())}
		reg.slots[key] = slot
	}
	reg.mu.Unlock()
	slot.mu.Lock()
	slot.bufs[c.Rank()] = local
	slot.mu.Unlock()
	// Window creation is collective and synchronising.
	c.Barrier()
	// All ranks have registered; resolve the raw views once, shared.
	slot.resolveOnce.Do(slot.resolve)
	return &Win{
		comm:        c,
		slot:        slot,
		idx:         c.Rank(),
		seq:         c.winSeq,
		outstanding: make([]model.Time, c.Size()),
	}, nil
}

// resolve caches every rank's exposed buffer as a raw byte view. It runs
// once per window, after the creation barrier published all buffers.
func (s *winSlot) resolve() {
	s.views = make([]rawView, len(s.bufs))
	for i, b := range s.bufs {
		v := &s.views[i]
		v.typ = reflect.TypeOf(b)
		if raw, esz, ok := typemap.RawBytes(b); ok {
			v.bytes, v.esz = raw, esz
			if esz > 0 {
				v.n = len(raw) / esz
			}
			continue
		}
		// purego build: keep the metadata, leave bytes nil so transfers
		// take the slow path.
		rv := reflect.ValueOf(b)
		v.esz = int(rv.Type().Elem().Size())
		v.n = rv.Len()
	}
}

// forceSlowRMA routes every window transfer through the element-typed copy
// path; the fast/slow equivalence tests flip it via export_test.go.
var forceSlowRMA atomic.Bool

// copyIn copies count elements of origin into target's exposed buffer at
// element offset off. Steady state is the raw bulk-copy path; mismatched
// types, purego builds and the forced-slow test hook fall back to the
// slow oracle.
func (s *winSlot) copyIn(origin any, target, off, count int) error {
	dst := &s.views[target]
	if dst.bytes == nil && dst.n > 0 || forceSlowRMA.Load() {
		return s.copyInSlow(origin, target, off, count)
	}
	if reflect.TypeOf(origin) != dst.typ {
		return fmt.Errorf("rma copy mismatch %s <- %T (off %d count %d)", dst.typ, origin, off, count)
	}
	src, esz, ok := typemap.RawBytes(origin)
	if !ok || esz != dst.esz {
		return s.copyInSlow(origin, target, off, count)
	}
	if off < 0 || count < 0 || off+count > dst.n || count*esz > len(src) {
		return fmt.Errorf("rma copy mismatch %s <- %T (off %d count %d)", dst.typ, origin, off, count)
	}
	if raceDetector {
		sh := &s.shards[target]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	copy(dst.bytes[off*esz:(off+count)*esz], src[:count*esz])
	return nil
}

// copyInSlow is the oracle for copyIn: element-typed, not byte-wise.
func (s *winSlot) copyInSlow(origin any, target, off, count int) error {
	dv := reflect.ValueOf(s.bufs[target])
	sv := reflect.ValueOf(origin)
	if sv.Kind() != reflect.Slice || sv.Type() != dv.Type() {
		return fmt.Errorf("rma copy mismatch %T <- %T (off %d count %d)", s.bufs[target], origin, off, count)
	}
	if off < 0 || count < 0 || off+count > dv.Len() || count > sv.Len() {
		return fmt.Errorf("rma copy mismatch %T <- %T (off %d count %d)", s.bufs[target], origin, off, count)
	}
	if raceDetector {
		sh := &s.shards[target]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if !copyElems(s.bufs[target], origin, off, 0, count) {
		reflect.Copy(dv.Slice(off, off+count), sv.Slice(0, count))
	}
	return nil
}

// copyOut copies count elements from target's exposed buffer at element
// offset off into origin.
func (s *winSlot) copyOut(origin any, target, off, count int) error {
	src := &s.views[target]
	if src.bytes == nil && src.n > 0 || forceSlowRMA.Load() {
		return s.copyOutSlow(origin, target, off, count)
	}
	if reflect.TypeOf(origin) != src.typ {
		return fmt.Errorf("rma copy mismatch %T <- %s (off %d count %d)", origin, src.typ, off, count)
	}
	dst, esz, ok := typemap.RawBytes(origin)
	if !ok || esz != src.esz {
		return s.copyOutSlow(origin, target, off, count)
	}
	if off < 0 || count < 0 || off+count > src.n || count*esz > len(dst) {
		return fmt.Errorf("rma copy mismatch %T <- %s (off %d count %d)", origin, src.typ, off, count)
	}
	if raceDetector {
		sh := &s.shards[target]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	copy(dst[:count*esz], src.bytes[off*esz:(off+count)*esz])
	return nil
}

// copyOutSlow is the oracle for copyOut: element-typed, not byte-wise.
func (s *winSlot) copyOutSlow(origin any, target, off, count int) error {
	sv := reflect.ValueOf(s.bufs[target])
	dv := reflect.ValueOf(origin)
	if dv.Kind() != reflect.Slice || dv.Type() != sv.Type() {
		return fmt.Errorf("rma copy mismatch %T <- %T (off %d count %d)", origin, s.bufs[target], off, count)
	}
	if off < 0 || count < 0 || off+count > sv.Len() || count > dv.Len() {
		return fmt.Errorf("rma copy mismatch %T <- %T (off %d count %d)", origin, s.bufs[target], off, count)
	}
	if raceDetector {
		sh := &s.shards[target]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if !copyElems(origin, s.bufs[target], 0, off, count) {
		reflect.Copy(dv.Slice(0, count), sv.Slice(off, off+count))
	}
	return nil
}

// copyElems copies count elements from src at soff to dst at doff with the
// builtin copy when dst is one of the primitive slice types winBufCheck
// admits, and reports false for the rest (struct windows), which take
// reflection: reflect.Value.Slice allocates. The caller has checked that
// both have dst's type and that the ranges fit.
func copyElems(dst, src any, doff, soff, count int) bool {
	switch d := dst.(type) {
	case []float64:
		copyAt(d, src, doff, soff, count)
	case []float32:
		copyAt(d, src, doff, soff, count)
	case []int64:
		copyAt(d, src, doff, soff, count)
	case []int32:
		copyAt(d, src, doff, soff, count)
	case []int16:
		copyAt(d, src, doff, soff, count)
	case []int8:
		copyAt(d, src, doff, soff, count)
	case []uint64:
		copyAt(d, src, doff, soff, count)
	case []uint32:
		copyAt(d, src, doff, soff, count)
	case []uint16:
		copyAt(d, src, doff, soff, count)
	case []byte:
		copyAt(d, src, doff, soff, count)
	default:
		return false
	}
	return true
}

func copyAt[T any](dst []T, src any, doff, soff, count int) {
	copy(dst[doff:doff+count], src.([]T)[soff:soff+count])
}

// Put copies count elements of origin into target's window at element
// offset targetOff. Completion (remote visibility) is only guaranteed after
// the next Fence (or a Flush of the target).
func (w *Win) Put(origin any, count int, d *Datatype, target, targetOff int) error {
	c := w.comm
	if target < 0 || target >= c.Size() {
		return fmt.Errorf("mpi: Put target %d of comm size %d", target, c.Size())
	}
	p := c.prof()
	clk := c.clock()
	bytes := count * d.Size()
	clk.Advance(p.MPIPutOverhead + p.InjectTime(bytes))
	arrive := clk.Now() + p.MPILatencyBetween(c.rk.ID, c.WorldRank(target))
	if err := w.slot.copyIn(origin, target, targetOff, count); err != nil {
		return fmt.Errorf("mpi: Put: %w", err)
	}
	if arrive > w.outstanding[target] {
		if w.outstanding[target] == 0 {
			w.touched = append(w.touched, target)
		}
		w.outstanding[target] = arrive
	}
	if arrive > w.maxOut {
		w.maxOut = arrive
	}
	w.curPuts++
	c.tele.rmaPutBytes.Add(int64(bytes))
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvPut, Peer: c.WorldRank(target), Bytes: bytes, V: clk.Now()})
	return nil
}

// Get copies count elements from target's window at element offset
// targetOff into origin. It completes locally (blocking round trip). The
// origin side charges injection time symmetrically with Put — a 64KiB Get
// is not priced like an 8B one.
func (w *Win) Get(origin any, count int, d *Datatype, target, targetOff int) error {
	c := w.comm
	if target < 0 || target >= c.Size() {
		return fmt.Errorf("mpi: Get target %d of comm size %d", target, c.Size())
	}
	p := c.prof()
	clk := c.clock()
	bytes := count * d.Size()
	clk.Advance(p.MPIPutOverhead + p.InjectTime(bytes))
	if err := w.slot.copyOut(origin, target, targetOff, count); err != nil {
		return fmt.Errorf("mpi: Get: %w", err)
	}
	// Round trip: request latency + payload back.
	clk.Advance(p.WireTime(0) + p.WireTime(bytes))
	c.tele.rmaGetBytes.Add(int64(bytes))
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvGet, Peer: c.WorldRank(target), Bytes: bytes, V: clk.Now()})
	return nil
}

// Flush completes this rank's outstanding puts to target (the analogue of
// MPI_Win_flush): the caller blocks, in virtual time, until the last put it
// issued to that target has arrived. Unlike Fence it is not collective and
// opens no new epoch.
func (w *Win) Flush(target int) error {
	c := w.comm
	if target < 0 || target >= c.Size() {
		return fmt.Errorf("mpi: Flush target %d of comm size %d", target, c.Size())
	}
	out := w.outstanding[target]
	if out == 0 {
		return nil
	}
	clk := c.clock()
	if idle := out - clk.Now(); idle > 0 {
		c.tele.idle.AddTime(idle)
	}
	clk.AdvanceTo(out)
	w.outstanding[target] = 0
	w.maxOut = 0
	keep := w.touched[:0]
	for _, t := range w.touched {
		if w.outstanding[t] == 0 {
			continue
		}
		keep = append(keep, t)
		if w.outstanding[t] > w.maxOut {
			w.maxOut = w.outstanding[t]
		}
	}
	w.touched = keep
	return nil
}

// Fence closes the current access epoch: it synchronises all ranks of the
// window and guarantees every Put issued before the fence is visible
// everywhere after it. A fence closing an epoch in which no rank put
// anything (the MPI_MODE_NOPRECEDE shape) still synchronises but elides
// the fence's data-ordering cost; the decision is made from the folded
// world-total put count, so every rank decides identically and virtual
// time stays deterministic. It is the one-window case of Fence(wins).
func (w *Win) Fence() { w.comm.fence([]*Win{w}) }

// Fence closes the access epochs of every window in wins with one barrier
// wave, charged as one fence, per communicator. Every rank of a
// communicator must pass the same windows of it, each once.
func Fence(wins []*Win) {
next:
	for i, w := range wins {
		for _, v := range wins[:i] {
			if v.comm == w.comm {
				continue next
			}
		}
		w.comm.fence(wins)
	}
}

// fence is one barrier wave of c closing the windows of wins that live on
// c. Each folds this rank's put counts of the two epochs since its
// cell[epoch%2] was last updated, so the cell reads as the exact cumulative
// total after the barrier, and closes its epoch before it; the wave enters
// at the latest arrival of any window's puts. One fence is charged, elided
// only when no window's total moved.
func (c *Comm) fence(wins []*Win) {
	clk := c.clock()
	enter := clk.Now()
	for _, w := range wins {
		if w.comm != c {
			continue
		}
		if add := w.prevPuts + w.curPuts; add != 0 {
			w.slot.puts[w.epoch&1].Add(add)
		}
		enter = model.Max(enter, w.maxOut)
		w.prevPuts, w.curPuts = w.curPuts, 0
		w.epoch++
		for _, t := range w.touched {
			w.outstanding[t] = 0
		}
		w.touched = w.touched[:0]
		w.maxOut = 0
	}
	clk.AdvanceTo(c.barrier.Wait(c.myIdx, enter))
	moved := false
	for _, w := range wins {
		if w.comm != c {
			continue
		}
		total := w.slot.puts[(w.epoch-1)&1].Load() // the cell the wave closed
		moved = moved || total != w.lastTotal
		w.lastTotal = total
	}
	if moved {
		clk.Advance(c.prof().MPIWinFence)
	} else {
		c.tele.rmaFenceElided.Inc()
	}
	c.tele.rmaFences.Inc()
	c.emit(simnet.Event{Rank: c.rk.ID, Kind: simnet.EvSync, Peer: -1, V: clk.Now()})
}
