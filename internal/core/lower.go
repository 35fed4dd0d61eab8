package core

import (
	"fmt"

	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/telemetry"
)

// emitSpanName precomputes the per-target "emit:<target>" span labels so
// the steady-state path does not concatenate a string per directive.
var emitSpanName = func() [TargetAuto + 1]string {
	var a [TargetAuto + 1]string
	for t := TargetDefault; t <= TargetAuto; t++ {
		a[t] = "emit:" + t.String()
	}
	return a
}()

func emitSpanLabel(t Target) string {
	if t >= 0 && int(t) < len(emitSpanName) {
		return emitSpanName[t]
	}
	return "emit:" + t.String()
}

// xfer is what one execution of a lowered comm_p2p transfers: the values
// of its clause expressions and what follows from them.
type xfer struct {
	doSend, doRecv   bool
	sendTo, recvFrom int // comm ranks; -1 without the role
	count            int
	inferred         bool // count came from the inference rule, not a clause
	target           Target
	auto             bool // target was TargetAuto's choice, over autoBytes
	autoBytes        int
	idle             bool // no role on this rank and no collective obligation
}

// emit executes one comm_p2p form whose clause set is merged and valid.
// Lowering — buffer classification, then role evaluation, count inference,
// target resolution and peer evaluation (evaluate) — runs in full unless the
// form replays; a replay re-evaluates only what the form does not fix.
// Either way what follows is per execution: the buffer-independence
// analysis against the region's pending operations, code generation for the
// chosen backend, and the ledger pin.
func (e *Env) emit(r *Region, b *Bound, replay bool) error {
	e.tele.directives.Inc()
	var dsp, lsp, esp telemetry.SpanHandle
	e.beginSpan(&dsp, "comm_p2p")
	defer e.endSpan(&dsp)
	e.beginSpan(&lsp, "lower")

	if replay {
		// The buffers are met again: count and charge what the handle
		// cache would on a hit, so that a replay and a fresh lowering of
		// the same directive read the same clock.
		for _, bi := range b.sinfos {
			e.reuse(bi)
		}
		for _, bi := range b.rinfos {
			e.reuse(bi)
		}
	} else if err := e.classifyAll(b); err != nil {
		return err
	}

	x, ranges := &b.x, b.ranges
	if !replay || !b.fixed {
		var (
			dyn    xfer
			rngArr [8]bufRange
			err    error
		)
		x = &dyn
		if ranges, err = e.evaluate(b, x, rngArr[:0]); err != nil {
			return err
		}
		if !replay && r.bound != nil && b != &r.transient {
			// Keep the lowering: the form replays under this region from
			// now on, and with no *Fn clause so does what was evaluated.
			b.env, b.parent = e, r.bound
			if b.fixed = b.merged.constant(); b.fixed {
				b.x, b.ranges = dyn, append(b.ranges[:0], ranges...)
			}
		}
	}
	var notes [2]decisionRec
	e.logNotes(r.id, x.notes(notes[:0]))
	e.endSpan(&lsp)
	if x.idle {
		// The directive generates nothing here.
		return nil
	}

	// Buffer-independence analysis: a directive whose buffers overlap a
	// pending operation's buffers is dependent on it, so the consolidated
	// synchronisation cannot be delayed past this point.
	if r.led.overlapsAny(ranges) {
		if err := e.flush(r.led, r.id); err != nil {
			return err
		}
		e.note(r.id, decSyncDependent, 0)
	}

	e.beginSpan(&esp, emitSpanLabel(x.target))
	var (
		handled bool
		err     error
	)
	if x.target == TargetMPI2Side && r.cfg.Coalesce {
		// Managed runtime: an eligible small transfer joins the pending
		// batch for its destination instead of posting its own message.
		// The pins below still register its buffers, so a dependent
		// directive flushes the batch exactly as it would a request.
		handled, err = e.coalesceP2P(r, b.sinfos, b.rinfos, x.count, x.doSend, x.doRecv, x.sendTo, x.recvFrom)
	}
	if !handled && err == nil {
		err = e.lowerCalls(nil, r.led, b, x, 0)
	}
	e.endSpan(&esp)
	if err != nil {
		return err
	}
	r.led.pin(ranges)
	return nil
}

// notes appends the decisions one execution of the transfer logs: the
// inferred count and the auto target's choice, with their evidence.
func (x *xfer) notes(out []decisionRec) []decisionRec {
	if x.inferred {
		out = append(out, decisionRec{code: decCountInfer, a: int32(x.count)})
	}
	if x.auto {
		code := decAutoMPI
		if x.target == TargetSHMEM {
			code = decAutoSHMEM
		}
		out = append(out, decisionRec{code: code, a: int32(x.autoBytes)})
	}
	return out
}

// logNotes records a transfer's notes under region and counts them.
func (e *Env) logNotes(region int, notes []decisionRec) {
	for _, d := range notes {
		d.region = int32(region)
		e.record(d)
		switch d.code {
		case decCountInfer:
			e.tele.inferred.Inc()
		case decAutoSHMEM:
			e.tele.autoTarget[TargetSHMEM].Inc()
		case decAutoMPI:
			e.tele.autoTarget[TargetMPI2Side].Inc()
		}
	}
}

// classifyAll classifies the merged clause set's buffers into the form.
// Both lists are analysed on every rank reaching the directive: the
// compiler sees the whole clause list regardless of the rank's role, and
// the one-sided backend needs collective window creation even on
// non-participants. The short clause lists of a typical directive fit the
// form's own arrays, keeping a lowering from a clause list allocation-free.
func (e *Env) classifyAll(b *Bound) error {
	cl := &b.merged
	b.sinfos, b.rinfos = b.sarr[:0], b.rarr[:0]
	if len(cl.sbuf) > len(b.sarr) {
		b.sinfos = make([]*bufInfo, 0, len(cl.sbuf))
	}
	if len(cl.rbuf) > len(b.rarr) {
		b.rinfos = make([]*bufInfo, 0, len(cl.rbuf))
	}
	for i, v := range cl.sbuf {
		bi, err := e.classify(v)
		if err != nil {
			return fmt.Errorf("core: sbuf[%d]: %w", i, err)
		}
		b.sinfos = append(b.sinfos, bi)
	}
	for i, v := range cl.rbuf {
		bi, err := e.classify(v)
		if err != nil {
			return fmt.Errorf("core: rbuf[%d]: %w", i, err)
		}
		b.rinfos = append(b.rinfos, bi)
	}
	return nil
}

// evaluate computes x from the clause expressions of a classified form and
// appends the buffer ranges the transfer touches to ranges: the roles
// (sendwhen/receivewhen), the count (explicit clause or the paper's
// inference rule) checked against the buffers' capacity, the target, and
// the peers of the roles this rank holds. It records nothing, so what it
// computes from constant clauses can be kept.
func (e *Env) evaluate(b *Bound, x *xfer, ranges []bufRange) ([]bufRange, error) {
	cl, sinfos, rinfos := &b.merged, b.sinfos, b.rinfos
	x.doSend, x.doRecv = cl.sendWhen.holds(), cl.recvWhen.holds()

	if cl.count.set {
		x.count = cl.count.eval()
		if x.count <= 0 {
			return nil, fmt.Errorf("core: count clause evaluated to %d", x.count)
		}
	} else {
		var err error
		if x.count, err = inferCount(sinfos, rinfos); err != nil {
			return nil, err
		}
		x.inferred = true
	}
	// Scalar composite buffers always move exactly one element (their
	// emission clamps to 1), so the count capacity check applies to array
	// buffers only.
	for i, bi := range sinfos {
		if x.doSend && bi.isArray && x.count > bi.elems {
			return nil, fmt.Errorf("core: count %d exceeds sbuf[%d] capacity %d", x.count, i, bi.elems)
		}
	}
	for i, bi := range rinfos {
		if x.doRecv && bi.isArray && x.count > bi.elems {
			return nil, fmt.Errorf("core: count %d exceeds rbuf[%d] capacity %d", x.count, i, bi.elems)
		}
	}

	x.target, x.auto, x.autoBytes = e.resolveTarget(cl, sinfos, rinfos, x.count)
	x.sendTo, x.recvFrom = -1, -1
	if !x.doSend && !x.doRecv && x.target != TargetMPI1Side {
		x.idle = true
		return ranges, nil
	}

	size := e.comm.Size()
	if x.doSend {
		if x.sendTo = cl.receiver.eval(); x.sendTo < 0 || x.sendTo >= size {
			return nil, fmt.Errorf("core: receiver clause evaluated to rank %d of comm size %d", x.sendTo, size)
		}
		for _, bi := range sinfos {
			ranges = append(ranges, bi.rangeFor(x.count))
		}
	}
	if x.doRecv {
		if x.recvFrom = cl.sender.eval(); x.recvFrom < 0 || x.recvFrom >= size {
			return nil, fmt.Errorf("core: sender clause evaluated to rank %d of comm size %d", x.recvFrom, size)
		}
		for _, bi := range rinfos {
			ranges = append(ranges, bi.rangeFor(x.count))
		}
	}
	return ranges, nil
}

// resolveTarget applies the target clause, the paper's default (MPI
// non-blocking two-sided), or the auto heuristic, whose choice is reported
// with the byte count it was made over.
func (e *Env) resolveTarget(cl *Clauses, sinfos, rinfos []*bufInfo, count int) (t Target, auto bool, bytes int) {
	if cl.targetSet {
		t = cl.target
	}
	switch t {
	case TargetDefault:
		return TargetMPI2Side, false, 0
	case TargetAuto:
		allSym := true
		for _, b := range rinfos {
			bytes += count * b.elemBytes
			if b.class != bufSym {
				allSym = false
			}
		}
		for _, b := range sinfos {
			if b.class != bufSym && b.class != bufPrimSlice {
				allSym = false
			}
		}
		if allSym && e.shm != nil && bytes <= AutoSmallMessageBytes {
			return TargetSHMEM, true, bytes
		}
		return TargetMPI2Side, true, bytes
	default:
		return t, false, 0
	}
}

type opKind uint8

const (
	opIrecv opKind = iota
	opIsend
	opPut
	opShmemPut
)

// planOp is one library call a comm_p2p lowers to, its handles resolved.
type planOp struct {
	buf any            // receive or send view, put origin, SHMEM source
	dt  *mpi.Datatype  // the MPI calls
	win *mpi.Win       // opPut
	req *mpi.Request   // opIrecv, opIsend
	sym shmem.AnySlice // opShmemPut: the destination array

	peer, count int32 // comm rank; world PE for opShmemPut
	off, srcOff int32 // window or symmetric destination offset; SHMEM source offset
	charges     int32 // MPITypeCacheHit charges owed before the call
	step, idx   int32 // the comm_p2p in its region, and the buffer in its lists
	kind        opKind
}

// lowerCalls generates the library calls of one execution of a lowered
// comm_p2p and makes each as it is generated or, recording a plan, hands it
// to rec. Their completion lands in l. MPI two-sided: MPI_Irecv per receive
// buffer, then MPI_Isend per send buffer, started in requests l owns (the
// directive knows they repeat). MPI one-sided: MPI_Put into cached,
// collectively created windows, which every rank names (the fence is
// collective). SHMEM: a typed shmem_put per buffer; the quiet +
// notification-flag completion is one-directional (sender -> receiver), so
// a destination reused across regions needs the application to
// resynchronise, exactly as in hand-written SHMEM.
func (e *Env) lowerCalls(rec *regionPlan, l *ledger, b *Bound, x *xfer, step int) error {
	issue := func(op planOp) error {
		op.step = int32(step)
		if rec != nil {
			rec.keep(op)
			return nil
		}
		return e.call(&op, l)
	}
	sinfos, rinfos := b.sinfos, b.rinfos
	switch x.target {
	case TargetMPI2Side:
		for side, infos := range [2][]*bufInfo{rinfos, sinfos} {
			on, kind, peer, name := x.doRecv, opIrecv, x.recvFrom, "rbuf"
			if side == 1 {
				on, kind, peer, name = x.doSend, opIsend, x.sendTo, "sbuf"
			}
			for i, bi := range infos {
				if !on {
					break
				}
				op := planOp{kind: kind, peer: int32(peer), count: int32(x.count), idx: int32(i), dt: bi.dt}
				if !bi.isArray {
					op.count = 1
				}
				var err error
				op.buf, err = bi.mpiView(e)
				switch {
				case err != nil:
				case op.dt == nil:
					op.dt, err = e.datatype(bi)
				case bi.class == bufStruct:
					op.charges = 1 // the committed type's scope-cache lookup
				}
				if err != nil {
					return fmt.Errorf("core: %s[%d]: %w", name, i, err)
				}
				op.req = l.request()
				if err := issue(op); err != nil {
					return err
				}
			}
		}
	case TargetMPI1Side:
		for i, bi := range rinfos {
			if bi.class == bufStruct {
				return fmt.Errorf("core: rbuf[%d]: one-sided target requires primitive or symmetric buffers", i)
			}
			// The resolved window rides the cached bufInfo: after the first
			// iteration the collective WinCreate (and even the winFor map
			// lookup) is skipped entirely.
			if bi.win == nil {
				local := bi.raw
				if bi.class == bufSym {
					local = bi.sym.LocalAny(e.shm)
				}
				w, err := e.winFor(local)
				if err != nil {
					return fmt.Errorf("core: rbuf[%d]: %w", i, err)
				}
				bi.win = w
			}
			l.noteWin(bi.win)
			if !x.doSend {
				continue
			}
			sb := sinfos[i]
			if sb.class == bufStruct {
				return fmt.Errorf("core: sbuf[%d]: one-sided target requires primitive or symmetric buffers", i)
			}
			op := planOp{kind: opPut, win: bi.win, peer: int32(x.sendTo), count: int32(x.count), off: int32(bi.symOff), idx: int32(i)}
			var err error
			if op.buf, err = sb.mpiView(e); err != nil {
				return fmt.Errorf("core: sbuf[%d]: %w", i, err)
			}
			if op.dt, err = e.datatype(bi); err != nil {
				return fmt.Errorf("core: rbuf[%d]: %w", i, err)
			}
			if err := issue(op); err != nil {
				return err
			}
		}
	case TargetSHMEM:
		if e.shm == nil {
			return fmt.Errorf("core: TARGET_COMM_SHMEM requires a SHMEM context in the environment")
		}
		for i, bi := range rinfos {
			if bi.class != bufSym {
				return fmt.Errorf("core: rbuf[%d] (%T): %w", i, bi.raw, ErrNotSymmetric)
			}
			if !x.doSend {
				continue
			}
			sb := sinfos[i]
			op := planOp{kind: opShmemPut, sym: bi.sym, peer: int32(e.comm.WorldRank(x.sendTo)), count: int32(x.count), off: int32(bi.symOff), idx: int32(i)}
			switch sb.class {
			case bufSym:
				op.buf, op.srcOff = sb.sym.LocalAny(e.shm), int32(sb.symOff)
			case bufPrimSlice:
				op.buf = sb.raw
			default:
				return fmt.Errorf("core: sbuf[%d]: SHMEM target requires symmetric or primitive-slice source buffers", i)
			}
			if err := issue(op); err != nil {
				return err
			}
		}
		if x.doRecv {
			l.noteShmemSrc(e.comm.WorldRank(x.recvFrom))
		}
	default:
		return fmt.Errorf("core: unresolved target %v", x.target)
	}
	return nil
}

// call makes one lowered call after the cache-hit charges owed before it,
// and with a ledger leaves there the completion the call needs.
func (e *Env) call(op *planOp, l *ledger) error {
	if op.charges > 0 {
		e.cacheHits(op.charges)
	}
	var err error
	switch op.kind {
	case opIrecv:
		err = e.comm.IrecvInto(op.req, op.buf, int(op.count), op.dt, int(op.peer), directiveTag)
	case opIsend:
		err = e.comm.IsendInto(op.req, op.buf, int(op.count), op.dt, int(op.peer), directiveTag)
	case opPut:
		err = op.win.Put(op.buf, int(op.count), op.dt, int(op.peer), int(op.off))
	case opShmemPut:
		err = op.sym.PutAny(e.shm, int(op.peer), op.buf, int(op.srcOff), int(op.off), int(op.count))
	}
	if err != nil {
		name := "sbuf"
		if op.kind == opIrecv {
			name = "rbuf"
		}
		return fmt.Errorf("core: %s[%d]: %w", name, op.idx, err)
	}
	if l != nil {
		l.leave(op, e.faults)
	}
	return nil
}
