package core

import (
	"fmt"
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

// emit lowers one fully merged comm_p2p directive: role evaluation
// (sendwhen/receivewhen), buffer classification, count inference, target
// resolution, buffer-independence analysis against the region's pending
// operations, and code generation for the chosen backend.
func (e *Env) emit(r *Region, cl *Clauses) error {
	e.tele.directives.Inc()
	dsp := e.span("comm_p2p", "directive")
	defer func() { dsp.End(e.comm.SPMD().Now()) }()
	lsp := e.span("lower", "directive")

	doSend := !cl.sendWhenSet || cl.sendWhen()
	doRecv := !cl.recvWhenSet || cl.recvWhen()

	// Classify buffers. Both lists are analysed on every rank reaching the
	// directive: the compiler sees the whole clause list regardless of the
	// rank's role, and the one-sided backend needs collective window
	// creation even on non-participants. The short clause lists of a
	// typical directive fit the stack-backed arrays, keeping the steady
	// state allocation-free.
	var sarr, rarr [4]*bufInfo
	sinfos, rinfos := sarr[:0], rarr[:0]
	if len(cl.sbuf) > len(sarr) {
		sinfos = make([]*bufInfo, 0, len(cl.sbuf))
	}
	if len(cl.rbuf) > len(rarr) {
		rinfos = make([]*bufInfo, 0, len(cl.rbuf))
	}
	for i, b := range cl.sbuf {
		bi, err := e.classify(b)
		if err != nil {
			return fmt.Errorf("core: sbuf[%d]: %w", i, err)
		}
		sinfos = append(sinfos, bi)
	}
	for i, b := range cl.rbuf {
		bi, err := e.classify(b)
		if err != nil {
			return fmt.Errorf("core: rbuf[%d]: %w", i, err)
		}
		rinfos = append(rinfos, bi)
	}

	// Count: explicit clause or the paper's inference rule.
	var count int
	if cl.countSet {
		count = cl.count()
		if count <= 0 {
			return fmt.Errorf("core: count clause evaluated to %d", count)
		}
	} else {
		var err error
		count, err = inferCount(sinfos, rinfos)
		if err != nil {
			return err
		}
		e.tele.inferred.Inc()
		e.note(r.id, decCountInfer, count)
	}
	// Scalar composite buffers always move exactly one element (their
	// emission clamps to 1), so the count capacity check applies to array
	// buffers only.
	for i, b := range sinfos {
		if doSend && b.isArray && count > b.elems {
			return fmt.Errorf("core: count %d exceeds sbuf[%d] capacity %d", count, i, b.elems)
		}
	}
	for i, b := range rinfos {
		if doRecv && b.isArray && count > b.elems {
			return fmt.Errorf("core: count %d exceeds rbuf[%d] capacity %d", count, i, b.elems)
		}
	}

	target := e.resolveTarget(r, cl, sinfos, rinfos, count)
	lsp.End(e.comm.SPMD().Now())

	if !doSend && !doRecv && target != TargetMPI1Side {
		// No role on this rank and no collective obligations: the
		// directive generates nothing here.
		return nil
	}

	// Peer evaluation.
	sendTo, recvFrom := -1, -1
	if doSend {
		sendTo = cl.receiver()
		if sendTo < 0 || sendTo >= e.comm.Size() {
			return fmt.Errorf("core: receiver clause evaluated to rank %d of comm size %d", sendTo, e.comm.Size())
		}
	}
	if doRecv {
		recvFrom = cl.sender()
		if recvFrom < 0 || recvFrom >= e.comm.Size() {
			return fmt.Errorf("core: sender clause evaluated to rank %d of comm size %d", recvFrom, e.comm.Size())
		}
	}

	// Buffer-independence analysis: a directive whose buffers overlap a
	// pending operation's buffers is dependent on it, so the consolidated
	// synchronisation cannot be delayed past this point.
	var rngArr [8]bufRange
	ranges := rngArr[:0]
	if doSend {
		for _, b := range sinfos {
			ranges = append(ranges, b.rangeFor(count))
		}
	}
	if doRecv {
		for _, b := range rinfos {
			ranges = append(ranges, b.rangeFor(count))
		}
	}
	if r.led.overlapsAny(ranges) {
		if err := e.flush(r.led, r.id); err != nil {
			return err
		}
		e.note(r.id, decSyncDependent, 0)
	}

	esp := e.span(emitSpanLabel(target), "directive")
	var err error
	switch target {
	case TargetMPI2Side:
		if r.cfg.Coalesce {
			// Managed runtime: an eligible small transfer joins the pending
			// batch for its destination instead of posting its own message.
			// The pins below still register its buffers, so a dependent
			// directive flushes the batch exactly as it would a request.
			var handled bool
			handled, err = e.coalesceP2P(r, sinfos, rinfos, count, doSend, doRecv, sendTo, recvFrom)
			if handled || err != nil {
				break
			}
		}
		err = e.emitMPI2Side(r, sinfos, rinfos, count, doSend, doRecv, sendTo, recvFrom)
	case TargetMPI1Side:
		err = e.emitMPI1Side(r, sinfos, rinfos, count, doSend, sendTo)
	case TargetSHMEM:
		err = e.emitSHMEM(r, sinfos, rinfos, count, doSend, doRecv, sendTo, recvFrom)
	default:
		err = fmt.Errorf("core: unresolved target %v", target)
	}
	esp.End(e.comm.SPMD().Now())
	if err != nil {
		return err
	}
	r.led.pin(ranges)
	return nil
}

// resolveTarget applies the target clause, the paper's default (MPI
// non-blocking two-sided), or the auto heuristic.
func (e *Env) resolveTarget(r *Region, cl *Clauses, sinfos, rinfos []*bufInfo, count int) Target {
	t := TargetDefault
	if cl.targetSet {
		t = cl.target
	}
	switch t {
	case TargetDefault:
		return TargetMPI2Side
	case TargetAuto:
		bytes := 0
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
			e.note(r.id, decAutoSHMEM, bytes)
			e.tele.autoTarget[TargetSHMEM].Inc()
			return TargetSHMEM
		}
		e.note(r.id, decAutoMPI, bytes)
		e.tele.autoTarget[TargetMPI2Side].Inc()
		return TargetMPI2Side
	default:
		return t
	}
}

// emitMPI2Side generates MPI_Irecv / MPI_Isend pairs. Receives are posted
// first (the lowering knows both roles), and all completions land in the
// region ledger for the consolidated MPI_Waitall.
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
			req, err := e.comm.Irecv(view, n, dt, recvFrom, directiveTag)
			if err != nil {
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
			req, err := e.comm.Isend(view, n, dt, sendTo, directiveTag)
			if err != nil {
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
