package core

import (
	"fmt"

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
	if x.inferred {
		e.tele.inferred.Inc()
		e.note(r.id, decCountInfer, x.count)
	}
	if x.auto {
		code := decAutoMPI
		if x.target == TargetSHMEM {
			code = decAutoSHMEM
		}
		e.note(r.id, code, x.autoBytes)
		e.tele.autoTarget[x.target].Inc()
	}
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

	sinfos, rinfos := b.sinfos, b.rinfos
	e.beginSpan(&esp, emitSpanLabel(x.target))
	var err error
	switch x.target {
	case TargetMPI2Side:
		if r.cfg.Coalesce {
			// Managed runtime: an eligible small transfer joins the pending
			// batch for its destination instead of posting its own message.
			// The pins below still register its buffers, so a dependent
			// directive flushes the batch exactly as it would a request.
			var handled bool
			handled, err = e.coalesceP2P(r, sinfos, rinfos, x.count, x.doSend, x.doRecv, x.sendTo, x.recvFrom)
			if handled || err != nil {
				break
			}
		}
		err = e.emitMPI2Side(r, sinfos, rinfos, x.count, x.doSend, x.doRecv, x.sendTo, x.recvFrom)
	case TargetMPI1Side:
		err = e.emitMPI1Side(r, sinfos, rinfos, x.count, x.doSend, x.sendTo)
	case TargetSHMEM:
		err = e.emitSHMEM(r, sinfos, rinfos, x.count, x.doSend, x.doRecv, x.sendTo, x.recvFrom)
	default:
		err = fmt.Errorf("core: unresolved target %v", x.target)
	}
	e.endSpan(&esp)
	if err != nil {
		return err
	}
	r.led.pin(ranges)
	return nil
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

// emitMPI2Side generates MPI_Irecv / MPI_Isend pairs. Receives are posted
// first (the lowering knows both roles), and all completions land in the
// region ledger for the consolidated MPI_Waitall. The operations are
// started in the ledger's own requests: the directive knows they repeat.
func (e *Env) emitMPI2Side(r *Region, sinfos, rinfos []*bufInfo, count int, doSend, doRecv bool, sendTo, recvFrom int) error {
	if doRecv {
		for i, b := range rinfos {
			view, err := b.mpiView(e)
			if err != nil {
				return fmt.Errorf("core: rbuf[%d]: %w", i, err)
			}
			dt, err := e.datatype(b)
			if err != nil {
				return fmt.Errorf("core: rbuf[%d]: %w", i, err)
			}
			n := count
			if !b.isArray {
				n = 1
			}
			req := r.led.request()
			if err := e.comm.IrecvInto(req, view, n, dt, recvFrom, directiveTag); err != nil {
				return fmt.Errorf("core: rbuf[%d]: %w", i, err)
			}
			r.led.reqs = append(r.led.reqs, req)
			if e.faults {
				r.led.resend = append(r.led.resend, resendOp{view: view, count: n, dt: dt, peer: recvFrom})
			}
		}
	}
	if doSend {
		for i, b := range sinfos {
			view, err := b.mpiView(e)
			if err != nil {
				return fmt.Errorf("core: sbuf[%d]: %w", i, err)
			}
			dt, err := e.datatype(b)
			if err != nil {
				return fmt.Errorf("core: sbuf[%d]: %w", i, err)
			}
			n := count
			if !b.isArray {
				n = 1
			}
			req := r.led.request()
			if err := e.comm.IsendInto(req, view, n, dt, sendTo, directiveTag); err != nil {
				return fmt.Errorf("core: sbuf[%d]: %w", i, err)
			}
			r.led.reqs = append(r.led.reqs, req)
			if e.faults {
				r.led.resend = append(r.led.resend, resendOp{view: view, count: n, dt: dt, peer: sendTo, isSend: true})
			}
		}
	}
	return nil
}

// emitMPI1Side generates MPI_Put calls into cached collectively created
// windows; the epoch-closing fence lands in the region ledger.
func (e *Env) emitMPI1Side(r *Region, sinfos, rinfos []*bufInfo, count int, doSend bool, sendTo int) error {
	for i, b := range rinfos {
		if b.class == bufStruct {
			return fmt.Errorf("core: rbuf[%d]: one-sided target requires primitive or symmetric buffers", i)
		}
		// The resolved window rides the cached bufInfo: after the first
		// iteration the collective WinCreate (and even the winFor map
		// lookup) is skipped entirely.
		w := b.win
		if w == nil {
			var local any
			if b.class == bufSym {
				local = b.sym.LocalAny(e.shm)
			} else {
				local = b.raw
			}
			var err error
			w, err = e.winFor(local)
			if err != nil {
				return fmt.Errorf("core: rbuf[%d]: %w", i, err)
			}
			b.win = w
		}
		var off int
		if b.class == bufSym {
			off = b.symOff
		}
		r.led.noteWin(w)
		if !doSend {
			continue
		}
		sb := sinfos[i]
		if sb.class == bufStruct {
			return fmt.Errorf("core: sbuf[%d]: one-sided target requires primitive or symmetric buffers", i)
		}
		origin, err := sb.mpiView(e)
		if err != nil {
			return fmt.Errorf("core: sbuf[%d]: %w", i, err)
		}
		dt, err := e.datatype(b)
		if err != nil {
			return fmt.Errorf("core: rbuf[%d]: %w", i, err)
		}
		if err := w.Put(origin, count, dt, sendTo, off); err != nil {
			return fmt.Errorf("core: sbuf[%d]: %w", i, err)
		}
	}
	return nil
}

// emitSHMEM generates typed shmem_put calls (the element size selects the
// variant) into the receiver's symmetric buffer; the quiet + notification
// flag completion is one-directional (sender -> receiver), matching SHMEM
// semantics: the sender's region completes without waiting for the receiver
// to consume the data. A destination buffer reused across regions therefore
// requires the application to resynchronise (barrier or return flag) before
// the next region's puts, exactly as in hand-written SHMEM.
// flags and the receiver-side wait_untils land in the region ledger.
func (e *Env) emitSHMEM(r *Region, sinfos, rinfos []*bufInfo, count int, doSend, doRecv bool, sendTo, recvFrom int) error {
	if e.shm == nil {
		return fmt.Errorf("core: TARGET_COMM_SHMEM requires a SHMEM context in the environment")
	}
	for i, b := range rinfos {
		if b.class != bufSym {
			return fmt.Errorf("core: rbuf[%d] (%T): %w", i, b.raw, ErrNotSymmetric)
		}
		if doSend {
			sb := sinfos[i]
			var src any
			srcOff := 0
			switch sb.class {
			case bufSym:
				src = sb.sym.LocalAny(e.shm)
				srcOff = sb.symOff
			case bufPrimSlice:
				src = sb.raw
			default:
				return fmt.Errorf("core: sbuf[%d]: SHMEM target requires symmetric or primitive-slice source buffers", i)
			}
			dstPE := e.comm.WorldRank(sendTo)
			if err := b.sym.PutAny(e.shm, dstPE, src, srcOff, b.symOff, count); err != nil {
				return fmt.Errorf("core: sbuf[%d]: %w", i, err)
			}
			r.led.noteShmemDst(dstPE)
		}
	}
	if doRecv {
		r.led.noteShmemSrc(e.comm.WorldRank(recvFrom))
	}
	return nil
}
