package mpi

import (
	"errors"
	"fmt"

	"commintent/internal/model"
	"commintent/internal/transport"
	"commintent/internal/typemap"
)

// Collectives: rendezvous, canonical-schedule replay, and data movement.
//
// Every collective is one generation of the communicator's barrier. Each
// rank publishes its entry clock, the call it made and its buffers' wire
// views in its own entry and arrives; the last arriver — whichever rank
// that is — runs the owner step on behalf of comm rank 0: it checks that
// every rank made the same call, replays the canonical cost model over the
// entry clocks (internal/mpi/replay.go) to produce every rank's exit clock —
// the exact arithmetic the original per-message implementation performed —
// and moves the bytes between the published views (moveDirect). The
// release flip publishes exits and error; each rank then sets its clock.
// There is one schedule representation, the replay, and one data movement,
// the direct copy: no collective sends a message.
//
// Happens-before, link by link: a rank's entry stores precede its arrival
// fetch-add; the arrival words order every arrival before the last one (up
// the tree, a node's winner arrives at the parent after its children
// arrived); the step runs after that; its stores precede the release flip;
// a waiter returns after loading the flipped word. An entry is rewritten
// only by its own rank, on its next call, and the shared outcome only by
// the next step, which needs every rank to have arrived again — that is,
// to have read this one first.
//
// Virtual time is a pure function of the cost model and entry state, and
// the step reads only published state (the entries), so it computes the same
// thing whichever rank happens to run it.

// collKind identifies a collective operation family.
type collKind uint8

const (
	collBcast collKind = iota
	collReduce
	collAllreduce
	collGather
	collScatter
	collAllgather
	collAlltoall
)

func (k collKind) String() string {
	switch k {
	case collBcast:
		return "bcast"
	case collReduce:
		return "reduce"
	case collAllreduce:
		return "allreduce"
	case collGather:
		return "gather"
	case collScatter:
		return "scatter"
	case collAllgather:
		return "allgather"
	case collAlltoall:
		return "alltoall"
	default:
		return "kind?"
	}
}

// Op is a reduction operator.
type Op int

const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// collEntry is one rank's contribution to a collective rendezvous: two
// cache lines, so neighbouring ranks publish without sharing one, the first
// holding what the step's checking pass reads and the second what its data
// movement reads.
type collEntry struct {
	v    model.Time // entry virtual clock
	op   collOp     // the call this rank made
	err  error      // local argument-validation failure, if any
	send []byte     // source buffer's wire view (nil when the op has none on this rank)
	recv []byte     // destination buffer's wire view (nil when none)
	_    [16]byte
}

// collShared is the per-communicator collective-sync area, shared by all
// member ranks through the world registry.
type collShared struct {
	entries []collEntry
	exits   []model.Time
	arr     []model.Time // replay arrival-time scratch
	entryV  []model.Time // replay entry-clock scratch (alltoall)
	err     error        // step-detected failure, read by every rank

	// owner is comm rank 0's handle and step the completion function every
	// rank hands the barrier: whichever rank arrives last runs the owner's
	// collStep. step is built with the area and owner set by rank 0 before
	// its first arrival.
	owner *Comm
	step  func()

	// acc is the step's reduction accumulator, in wire form, grown on
	// demand so steady-state collectives allocate nothing.
	acc []byte
}

// collFor returns the communicator's shared collective-sync area, creating
// it on first use.
func collFor(c *Comm) *collShared {
	reg := registry(c.rk.World())
	key := "coll/" + c.id
	reg.mu.Lock()
	defer reg.mu.Unlock()
	sh, ok := reg.coll[key]
	if !ok {
		n := c.Size()
		sh = &collShared{
			entries: make([]collEntry, n),
			exits:   make([]model.Time, n),
			arr:     make([]model.Time, n),
			entryV:  make([]model.Time, n),
		}
		sh.step = func() { sh.owner.collStep() }
		reg.coll[key] = sh
	}
	if c.myIdx == 0 {
		sh.owner = c
	}
	return sh
}

// collOp describes one collective invocation.
type collOp struct {
	kind  collKind
	root  int
	count int
	d     *Datatype
	op    Op
}

// ErrCollectiveMismatch is returned, wrapped with the first disagreeing
// rank and field, by every rank of a collective whose ranks did not all
// make the same call: a different operation, root, count, datatype or
// reduction operator than comm rank 0's.
var ErrCollectiveMismatch = errors.New("mpi: mismatched collective call")

// mismatch names the first field in which two ranks' calls differ, "" when
// they are the same call.
func (a *collOp) mismatch(b *collOp) string {
	switch {
	case a.kind != b.kind:
		return "operation"
	case a.root != b.root:
		return "root"
	case a.count != b.count:
		return "count"
	case !a.d.same(b.d):
		return "datatype"
	case a.op != b.op:
		return "op"
	}
	return ""
}

// wire returns count elements of buf as their wire bytes, the form in which
// collective buffers are published and moved. A primitive slice whose
// memory is its own wire encoding (typemap.WireView) is viewed in place:
// nothing is copied, nothing allocated, and the slice header is not
// retained. Anything else — a derived datatype, a purego build, a
// big-endian host — is staged through one pooled wire buffer (staged):
// encoded now when fill is set, for the caller to decode afterwards and
// return to the pool.
func (c *Comm) wire(buf any, d *Datatype, count int, fill bool) (w []byte, staged bool, err error) {
	raw, k, native := typemap.WireView(buf)
	if native && k == d.kind && count >= 0 && count*k.Size() <= len(raw) {
		return raw[:count*k.Size()], false, nil
	}
	// Not the zero-copy case: either an argument error or a buffer to stage.
	if buf == nil {
		return nil, false, errors.New("nil buffer")
	}
	if count < 0 {
		return nil, false, fmt.Errorf("negative count %d", count)
	}
	have, err := ElemCount(buf, d)
	if err != nil {
		return nil, false, err
	}
	if have < count {
		return nil, false, fmt.Errorf("buffer holds %d elements, need %d", have, count)
	}
	w = transport.GetBuf(count * d.Size())
	if fill {
		if _, err := d.encodeInto(c.prof(), w, buf, count); err != nil {
			transport.PutBuf(w)
			return nil, false, err
		}
	}
	return w, true, nil
}

// runCollective is the common rendezvous/replay/data skeleton. send/recv
// are this rank's buffers and sn/rn the element counts the op moves through
// them; a negative count means the op has no such buffer on this rank. A
// local argument failure is carried into the rendezvous so the whole
// communicator fails together instead of deadlocking. It returns the error
// this rank should report.
func (c *Comm) runCollective(op collOp, send any, sn int, recv any, rn int) error {
	sh, bar, me := c.csh, c.barrier, c.myIdx
	e := &sh.entries[me]
	var sst, rst bool
	var err error
	if op.root < 0 || op.root >= c.Size() {
		return fmt.Errorf("mpi: %s: root %d of comm size %d", op.kind, op.root, c.Size())
	}
	e.send, e.recv = nil, nil
	if op.kind == collReduce || op.kind == collAllreduce {
		err = checkReducible(op.d)
	}
	if err == nil && sn >= 0 {
		if e.send, sst, err = c.wire(send, op.d, sn, true); err != nil {
			err = fmt.Errorf("sendbuf: %w", err)
		}
	}
	if err == nil && rn >= 0 {
		if e.recv, rst, err = c.wire(recv, op.d, rn, false); err != nil {
			err = fmt.Errorf("recvbuf: %w", err)
		}
	}
	if err != nil {
		err = fmt.Errorf("mpi: %s: %w", op.kind, err)
	}
	e.v, e.op, e.err = c.clk.Now(), op, err

	bar.WaitStep(me, 0, sh.step)

	if err == nil {
		if err = sh.err; err == nil {
			c.clk.Set(sh.exits[me])
		}
	}
	if rst {
		if err == nil {
			_, err = op.d.decode(c.prof(), e.recv, recv, rn)
		}
		transport.PutBuf(e.recv)
	}
	if sst {
		transport.PutBuf(e.send)
	}
	if err != nil {
		return err
	}
	if c.tele.collCalls != nil {
		c.tele.collCalls.Inc()
	}
	return nil
}

// collStep is the owner step: it checks the published calls against each
// other, replays the canonical schedule over the published entry clocks and
// performs the data movement in place. The receiver is comm rank 0's
// handle, but the goroutine is the last arriver's, between the last arrival
// and the release: rank 0 is parked in the barrier like everyone else, so
// its fields can be read freely.
func (c *Comm) collStep() {
	sh := c.csh
	ent := sh.entries
	op := ent[0].op
	sh.err = nil
	for i := range ent {
		if err := ent[i].err; err != nil {
			sh.err = fmt.Errorf("mpi: collective failed on rank %d: %w", i, err)
			return
		}
		if f := op.mismatch(&ent[i].op); f != "" {
			sh.err = fmt.Errorf("%w: rank %d disagrees with rank 0 on %s", ErrCollectiveMismatch, i, f)
			return
		}
		sh.exits[i] = ent[i].v
	}
	// On the wall clock there is no replay: exits stay the published entry
	// readings (rank clocks ignore Set in wall mode).
	if !c.wall {
		r := replayer{p: c.prof(), c: c, v: sh.exits}
		switch op.kind {
		case collBcast:
			r.bcast(op.root, op.count, op.d, sh.arr)
		case collReduce:
			r.reduce(op.root, op.count, op.d, sh.arr)
		case collAllreduce:
			r.reduce(0, op.count, op.d, sh.arr)
			r.bcast(0, op.count, op.d, sh.arr)
		case collGather:
			r.gather(op.root, op.count, op.d, sh.arr)
		case collScatter:
			r.scatter(op.root, op.count, op.d, sh.arr)
		case collAllgather:
			r.gather(0, op.count, op.d, sh.arr)
			r.bcast(0, c.Size()*op.count, op.d, sh.arr)
		case collAlltoall:
			r.alltoall(op.count, op.d, sh.entryV)
		}
	}
	sh.err = moveDirect(sh, op)
}

// Bcast broadcasts count elements of buf (datatype d) from root to all
// ranks of the communicator. Every rank must call it with an adequately
// sized buffer. The canonical cost model is the binomial tree.
func (c *Comm) Bcast(buf any, count int, d *Datatype, root int) error {
	sn, rn := -1, count
	if c.Rank() == root {
		sn, rn = count, -1
	}
	return c.runCollective(collOp{kind: collBcast, root: root, count: count, d: d}, buf, sn, buf, rn)
}

// Reduce combines sendbuf across all ranks element-wise with op, leaving
// the result in recvbuf on root (recvbuf may be nil elsewhere). Buffers
// must be []float64, []int64 or []int32, matching d. The canonical cost
// model is the ascending-bit binomial tree.
func (c *Comm) Reduce(sendbuf, recvbuf any, count int, d *Datatype, op Op, root int) error {
	rn := -1
	if c.Rank() == root {
		rn = count
	}
	return c.runCollective(collOp{kind: collReduce, root: root, count: count, d: d, op: op},
		sendbuf, count, recvbuf, rn)
}

// Allreduce combines sendbuf across all ranks element-wise with op, leaving
// the result in every rank's recvbuf. The canonical cost model is Reduce to
// rank 0 followed by Bcast.
func (c *Comm) Allreduce(sendbuf, recvbuf any, count int, d *Datatype, op Op) error {
	if recvbuf == nil {
		return fmt.Errorf("mpi: Allreduce: nil recvbuf")
	}
	return c.runCollective(collOp{kind: collAllreduce, count: count, d: d, op: op},
		sendbuf, count, recvbuf, count)
}

// Gather collects count elements from every rank into recvbuf on root, laid
// out in comm-rank order. recvbuf must hold Size()*count elements on root
// and may be nil elsewhere. The canonical cost model is the linear
// algorithm (root receives from each rank in comm-rank order).
func (c *Comm) Gather(sendbuf any, count int, d *Datatype, recvbuf any, root int) error {
	rn := -1
	if c.Rank() == root {
		rn = c.Size() * count
	}
	return c.runCollective(collOp{kind: collGather, root: root, count: count, d: d},
		sendbuf, count, recvbuf, rn)
}

// moveDirect performs the collective's data movement through the shared
// address space: the step walks the published wire views and copies or
// reduces in place, with no messages and no staging. The views' lengths
// follow from (kind, count, datatype size, comm size), which the step has
// just checked every rank agrees on.
func moveDirect(sh *collShared, op collOp) error {
	ent := sh.entries
	nb := op.count * op.d.Size()
	switch op.kind {
	case collBcast:
		for i := range ent {
			if i != op.root {
				copy(ent[i].recv, ent[op.root].send)
			}
		}
	case collReduce, collAllreduce:
		if cap(sh.acc) < nb {
			sh.acc = make([]byte, nb)
		}
		acc := sh.acc[:nb]
		copy(acc, ent[0].send)
		for i := 1; i < len(ent); i++ {
			if err := foldWire(op.d, acc, ent[i].send, op.op); err != nil {
				return fmt.Errorf("mpi: %s: %w", op.kind, err)
			}
		}
		if op.kind == collReduce {
			copy(ent[op.root].recv, acc)
			break
		}
		for i := range ent {
			copy(ent[i].recv, acc)
		}
	case collGather:
		for i := range ent {
			copy(ent[op.root].recv[i*nb:], ent[i].send)
		}
	case collScatter:
		for i := range ent {
			copy(ent[i].recv, ent[op.root].send[i*nb:(i+1)*nb])
		}
	case collAllgather:
		for i := range ent {
			for j := range ent {
				copy(ent[j].recv[i*nb:], ent[i].send)
			}
		}
	case collAlltoall:
		for s := range ent {
			for r := range ent {
				copy(ent[r].recv[s*nb:], ent[s].send[r*nb:(r+1)*nb])
			}
		}
	}
	return nil
}
