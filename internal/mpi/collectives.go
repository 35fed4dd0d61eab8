package mpi

import (
	"errors"
	"fmt"

	"commintent/internal/coll"
	"commintent/internal/model"
	rt "commintent/internal/runtime"
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
// picks the data-movement algorithm and, when that is the direct move,
// moves the bytes. The release flip publishes exits, algorithm and error;
// each rank then sets its clock and, for any other algorithm, runs its part
// of the clockless data movement.
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
// Virtual time is a pure function of the cost model and entry state: the
// data-movement algorithm (internal/coll) can change per size, per rank
// count, or per test force without moving a single virtual nanosecond, and
// the step reads only published state (entries, and comm rank 0's tuner
// inputs), so it computes the same thing whichever rank happens to run it.

// Internal tag codes for collective data-plane plumbing (offsets into the
// reserved tag window, so they can never collide with user point-to-point
// traffic). The legacy codes keep their values; scatter historically rode
// on tagGather round 1.
const (
	tagBcast = iota
	tagReduce
	tagGather
	tagAllreduce
	tagAllgather
	tagAlltoall
	tagScatter
	tagHier // hierarchical (node-leader and topology-ring) mover traffic
)

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
	algo    coll.Algo
	err     error // step-detected failure, read by every rank

	// owner is comm rank 0's handle and step the completion function every
	// rank hands the barrier: whichever rank arrives last runs the owner's
	// collStep, so the tuner observation, decision trace and retune
	// counters are rank 0's however the arrival order falls. step is built
	// with the area and owner set by rank 0 before its first arrival.
	owner *Comm
	step  func()

	// topo is the communicator's placement summary (zero when the profile
	// has no hierarchical topology) and hl the node-membership layout the
	// hierarchical movers walk. Both are built once at communicator
	// creation and read-only afterwards.
	topo coll.Topo
	hl   *hierLayout

	// tuner is the managed runtime's per-communicator decision cache,
	// touched only inside the step (so it needs no locking). Lazily created
	// the first time the step runs with retuning active.
	tuner *rt.CollTuner

	// Wall-mode tuner feedback. There are no replayed exits to subtract, so
	// rank 0 measures each invocation end to end (earliest published entry
	// to its own post-mover clock) and the step feeds that duration to the
	// tuner on the NEXT comparable invocation, by when rank 0 has arrived
	// again.
	wallStart model.Time // earliest entry reading of the current invocation
	lastObs   rt.CollObs // measured observation from the previous invocation
	lastKind  coll.Kind  // what lastObs measured...
	lastBytes int        // ...so stale observations are not cross-applied

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
		if h, ok := c.prof().Topo.(model.Hierarchical); ok {
			sh.hl = newHierLayout(h, c.ranks)
			sh.topo = coll.Topo{
				Nodes:        sh.hl.nodes,
				RanksPerNode: sh.hl.maxPer,
				Diameter:     h.Diameter(),
			}
		}
		reg.coll[key] = sh
	}
	if c.myIdx == 0 {
		sh.owner = c
	}
	return sh
}

// collOp describes one collective invocation.
type collOp struct {
	kind  coll.Kind
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
	if op.kind == coll.Reduce || op.kind == coll.Allreduce {
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
		err = sh.err
	}
	algo := sh.algo
	if err == nil {
		c.clk.Set(sh.exits[me])
		if algo != coll.Direct {
			err = c.runMover(op, e.send, e.recv, algo)
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
	if c.wall && me == 0 && rt.Active().Retune {
		// Rank 0 records this invocation's measured duration for the NEXT
		// comparable invocation's tuner feedback (see chooseAlgo): the next
		// step cannot run before rank 0 has arrived again.
		sh.lastObs = rt.CollObs{Duration: c.clk.Now() - sh.wallStart}
		sh.lastKind = op.kind
		sh.lastBytes = op.count * op.d.Size()
	}
	if c.tele.collCalls != nil {
		c.tele.collCalls.Inc()
		c.tele.collAlgo[algo].Inc()
		class := 0
		if algo.Hierarchical() {
			class = 1
		}
		c.tele.collSched[op.kind][class].Inc()
	}
	return nil
}

// collStep is the owner step: it checks the published calls against each
// other, replays the canonical schedule over the published entry clocks
// and, for the direct algorithm, performs the data movement in place. The
// receiver is comm rank 0's handle, but the goroutine is the last
// arriver's, between the last arrival and the release: rank 0 is parked in
// the barrier like everyone else, so its fields can be read freely.
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
	if c.wall {
		// No canonical replay on the wall clock: exits stay the published
		// entry readings (rank clocks ignore Set in wall mode) and
		// durations are measured, not modelled. Record the invocation's
		// earliest entry so rank 0 can measure it end to end.
		minEntry := ent[0].v
		for i := 1; i < len(ent); i++ {
			if v := ent[i].v; v < minEntry {
				minEntry = v
			}
		}
		sh.wallStart = minEntry
	} else {
		r := replayer{p: c.prof(), c: c, v: sh.exits}
		switch op.kind {
		case coll.Bcast:
			r.bcast(op.root, op.count, op.d, sh.arr)
		case coll.Reduce:
			r.reduce(op.root, op.count, op.d, sh.arr)
		case coll.Allreduce:
			r.reduce(0, op.count, op.d, sh.arr)
			r.bcast(0, op.count, op.d, sh.arr)
		case coll.Gather:
			r.gather(op.root, op.count, op.d, sh.arr)
		case coll.Scatter:
			r.scatter(op.root, op.count, op.d, sh.arr)
		case coll.Allgather:
			r.gather(0, op.count, op.d, sh.arr)
			r.bcast(0, c.Size()*op.count, op.d, sh.arr)
		case coll.Alltoall:
			r.alltoall(op.count, op.d, sh.entryV)
		}
	}
	sh.algo = c.chooseAlgo(sh, op)
	if sh.algo == coll.Direct {
		sh.err = moveDirect(sh, op)
	}
}

// chooseAlgo picks the data-movement algorithm for this invocation. With
// the managed runtime's retuning off this is exactly the static table
// lookup. With it on, the step feeds the tuner this collective's
// virtual-time observation — duration from the already-replayed entry/exit
// clocks, the profile's pure-bandwidth wire cost, and rank 0's
// deterministic outstanding-request high-watermark — and uses the tuned
// (hysteresis-damped) choice. Either way the choice only affects how real
// bytes move: virtual time comes from the canonical replay above, so
// retuning never moves a golden.
func (c *Comm) chooseAlgo(sh *collShared, op collOp) coll.Algo {
	bytes := op.count * op.d.Size()
	cfg := rt.Active()
	if !cfg.Retune {
		return coll.ChooseTopo(op.kind, c.Size(), bytes, sh.topo)
	}
	if sh.tuner == nil {
		sh.tuner = rt.NewCollTuner(ManagedTrace(c.rk.World()), c.id)
	}
	var obs rt.CollObs
	if c.wall {
		// Measured feedback runs one invocation late: the previous
		// comparable invocation's end-to-end wall duration. A zero
		// duration (first invocation, or shape change) is ignored by the
		// tuner, so the static choice stands until real data exists.
		if sh.lastKind == op.kind && sh.lastBytes == bytes {
			obs.Duration = sh.lastObs.Duration
		}
	} else {
		minEntry := sh.entries[0].v
		maxExit := sh.exits[0]
		for i := 1; i < len(sh.entries); i++ {
			if v := sh.entries[i].v; v < minEntry {
				minEntry = v
			}
			if v := sh.exits[i]; v > maxExit {
				maxExit = v
			}
		}
		obs.Duration = maxExit - minEntry
	}
	obs.Wire = c.prof().WireTime(bytes)
	obs.Bytes = bytes
	obs.QueueHighWater = c.liveReqsHW
	obs.Rank = c.rk.ID
	obs.V = sh.entries[0].v
	algo, switched := sh.tuner.Choose(op.kind, c.Size(), bytes, sh.topo, obs)
	if c.tele.retuneEvals != nil {
		c.tele.retuneEvals.Inc()
		if switched {
			c.tele.retuneSwitches.Inc()
			c.tele.retuneDecs.Inc()
		}
	}
	return algo
}

// Bcast broadcasts count elements of buf (datatype d) from root to all
// ranks of the communicator. Every rank must call it with an adequately
// sized buffer. The canonical cost model is the binomial tree.
func (c *Comm) Bcast(buf any, count int, d *Datatype, root int) error {
	sn, rn := -1, count
	if c.Rank() == root {
		sn, rn = count, -1
	}
	return c.runCollective(collOp{kind: coll.Bcast, root: root, count: count, d: d}, buf, sn, buf, rn)
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
	return c.runCollective(collOp{kind: coll.Reduce, root: root, count: count, d: d, op: op},
		sendbuf, count, recvbuf, rn)
}

// Allreduce combines sendbuf across all ranks element-wise with op, leaving
// the result in every rank's recvbuf. The canonical cost model is Reduce to
// rank 0 followed by Bcast.
func (c *Comm) Allreduce(sendbuf, recvbuf any, count int, d *Datatype, op Op) error {
	if recvbuf == nil {
		return fmt.Errorf("mpi: Allreduce: nil recvbuf")
	}
	return c.runCollective(collOp{kind: coll.Allreduce, count: count, d: d, op: op},
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
	return c.runCollective(collOp{kind: coll.Gather, root: root, count: count, d: d},
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
	case coll.Bcast:
		for i := range ent {
			if i != op.root {
				copy(ent[i].recv, ent[op.root].send)
			}
		}
	case coll.Reduce, coll.Allreduce:
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
		if op.kind == coll.Reduce {
			copy(ent[op.root].recv, acc)
			break
		}
		for i := range ent {
			copy(ent[i].recv, acc)
		}
	case coll.Gather:
		for i := range ent {
			copy(ent[op.root].recv[i*nb:], ent[i].send)
		}
	case coll.Scatter:
		for i := range ent {
			copy(ent[i].recv, ent[op.root].send[i*nb:(i+1)*nb])
		}
	case coll.Allgather:
		for i := range ent {
			for j := range ent {
				copy(ent[j].recv[i*nb:], ent[i].send)
			}
		}
	case coll.Alltoall:
		for s := range ent {
			for r := range ent {
				copy(ent[r].recv[s*nb:], ent[s].send[r*nb:(r+1)*nb])
			}
		}
	}
	return nil
}

// relRank renumbers so root becomes rank 0; absRank undoes it.
func relRank(rank, root, n int) int { return (rank - root + n) % n }
func absRank(rel, root, n int) int  { return (rel + root) % n }

// topBit returns the highest set bit of x (x > 0).
func topBit(x int) int {
	b := 1
	for b<<1 <= x {
		b <<= 1
	}
	return b
}

// fanStart returns the bit at which rank me starts fanning out in a
// binomial broadcast: 1 for the root, else one above its highest set bit.
func fanStart(me int) int {
	if me == 0 {
		return 1
	}
	return topBit(me) << 1
}

func bitLog(bit int) int {
	k := 0
	for bit > 1 {
		bit >>= 1
		k++
	}
	return k
}
