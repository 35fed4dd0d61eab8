package core

import (
	"fmt"
	"reflect"

	"commintent/internal/mpi"
)

// This file implements the extension the paper's conclusion announces as
// future work: "we are working to extend the directives to express groups
// of processes, and their collective communication/synchronization in a
// variety of many-to-one, one-to-many and all-to-all patterns." The
// comm_coll directive carries the same buffer/target clauses as comm_p2p
// plus a pattern and a root, and lowers to the library collectives (MPI
// target) or to put/flag sequences (SHMEM target).

// CollKind selects the collective pattern of a comm_coll directive.
type CollKind int

const (
	// OneToMany replicates the root's sbuf into every rank's rbuf
	// (broadcast).
	OneToMany CollKind = iota
	// ManyToOne concatenates every rank's sbuf into the root's rbuf in
	// rank order (gather).
	ManyToOne
	// AllToAll exchanges segment j of rank i's sbuf into segment i of
	// rank j's rbuf (total exchange).
	AllToAll
)

func (k CollKind) String() string {
	switch k {
	case OneToMany:
		return "one-to-many"
	case ManyToOne:
		return "many-to-one"
	case AllToAll:
		return "all-to-all"
	default:
		return fmt.Sprintf("collkind(%d)", int(k))
	}
}

// collTag separates comm_coll two-sided traffic from comm_p2p traffic.
const collTag = 12

// CollClauses carries the comm_coll clause set.
type collClauses struct {
	kind    CollKind
	kindSet bool
	root    int
	rootSet bool
	base    *Clauses
}

// CollOption asserts one comm_coll clause; plain Options (SBuf, RBuf,
// Count, WithTarget) are accepted alongside.
type CollOption func(*collClauses)

// Pattern asserts the collective pattern.
func Pattern(k CollKind) CollOption {
	return func(c *collClauses) { c.kind = k; c.kindSet = true }
}

// Root asserts the root rank for one-to-many and many-to-one patterns.
func Root(id int) CollOption {
	return func(c *collClauses) { c.root = id; c.rootSet = true }
}

// With adapts plain clause options for use in a comm_coll directive.
func With(opts ...Option) CollOption {
	return func(c *collClauses) {
		for _, o := range opts {
			o(c.base)
		}
	}
}

// Coll executes one comm_coll directive. It is collective: every rank of
// the environment's communicator must reach it with compatible clauses. The
// completion synchronisation is immediate (collectives are synchronising by
// nature), so comm_coll never leaves pending state in a region ledger.
func (e *Env) Coll(opts ...CollOption) error {
	if e.closed {
		return ErrClosed
	}
	cc := &collClauses{base: &Clauses{}}
	for _, o := range opts {
		o(cc)
	}
	if !cc.kindSet {
		return fmt.Errorf("%w: pattern", ErrMissingClause)
	}
	cl := cc.base
	if len(cl.sbuf) != 1 || len(cl.rbuf) != 1 {
		return fmt.Errorf("core: comm_coll takes exactly one sbuf and one rbuf buffer, got %d/%d", len(cl.sbuf), len(cl.rbuf))
	}
	if (cc.kind == OneToMany || cc.kind == ManyToOne) && !cc.rootSet {
		return fmt.Errorf("%w: root", ErrMissingClause)
	}
	if cc.rootSet && (cc.root < 0 || cc.root >= e.comm.Size()) {
		return fmt.Errorf("core: root clause evaluated to rank %d of comm size %d", cc.root, e.comm.Size())
	}

	sb, err := e.classify(cl.sbuf[0])
	if err != nil {
		return fmt.Errorf("core: comm_coll sbuf: %w", err)
	}
	rb, err := e.classify(cl.rbuf[0])
	if err != nil {
		return fmt.Errorf("core: comm_coll rbuf: %w", err)
	}
	if sb.class == bufStruct || rb.class == bufStruct {
		return fmt.Errorf("core: comm_coll requires array buffers")
	}

	// Count: per-destination segment size for AllToAll, per-rank
	// contribution for ManyToOne, whole payload for OneToMany.
	n := e.comm.Size()
	var count int
	if cl.count.set {
		count = cl.count.eval()
		if count <= 0 {
			return fmt.Errorf("core: count clause evaluated to %d", count)
		}
	} else {
		switch cc.kind {
		case OneToMany:
			count = min2(sb.elems, rb.elems)
		case ManyToOne:
			count = min2(sb.elems, rb.elems/n)
		case AllToAll:
			count = min2(sb.elems/n, rb.elems/n)
		}
		if count <= 0 {
			return ErrCountInference
		}
		e.noteText(e.regionSeq, "count-infer", fmt.Sprintf("comm_coll %v: inferred segment count %d", cc.kind, count))
	}

	target := TargetMPI2Side
	if cl.targetSet {
		switch cl.target {
		case TargetSHMEM:
			target = TargetSHMEM
		case TargetDefault, TargetMPI2Side, TargetAuto:
			target = TargetMPI2Side
		default:
			return fmt.Errorf("core: comm_coll does not support target %v", cl.target)
		}
	}

	e.regionSeq++
	switch target {
	case TargetSHMEM:
		err = e.collSHMEM(cc.kind, cc.root, sb, rb, count)
	default:
		err = e.collMPI(cc.kind, cc.root, sb, rb, count)
	}
	if err != nil {
		return err
	}
	e.noteText(e.regionSeq, "collective", fmt.Sprintf("%v root=%d count=%d target=%v", cc.kind, cc.root, count, target))
	return nil
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// collMPI lowers the pattern to the MPI collectives / two-sided exchange.
func (e *Env) collMPI(kind CollKind, root int, sb, rb *bufInfo, count int) error {
	sview, err := sb.mpiView(e)
	if err != nil {
		return err
	}
	rview, err := rb.mpiView(e)
	if err != nil {
		return err
	}
	rdt, err := e.datatype(rb)
	if err != nil {
		return err
	}
	me := e.comm.Rank()
	n := e.comm.Size()
	switch kind {
	case OneToMany:
		// The root broadcasts its sbuf; everyone receives into rbuf. MPI's
		// Bcast uses one buffer, so the root stages sbuf into rbuf first.
		if me == root {
			if err := localCopySegment(rview, sview, 0, 0, count); err != nil {
				return err
			}
		}
		return e.comm.Bcast(rview, count, rdt, root)
	case ManyToOne:
		var dst any
		if me == root {
			dst = rview
		}
		sdt, err := e.datatype(sb)
		if err != nil {
			return err
		}
		return e.comm.Gather(sview, count, sdt, dst, root)
	case AllToAll:
		// Pairwise exchange: post all receives, then send all segments,
		// then one consolidated waitall — the comm_p2p lowering's shape
		// applied to the total exchange.
		sdt, err := e.datatype(sb)
		if err != nil {
			return err
		}
		reqs := make([]*mpi.Request, 0, 2*n)
		for src := 0; src < n; src++ {
			if src == me {
				continue
			}
			seg, err := sliceSegment(rview, src*count, count)
			if err != nil {
				return err
			}
			r, err := e.comm.Irecv(seg, count, rdt, src, collTag)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		for dst := 0; dst < n; dst++ {
			seg, err := sliceSegment(sview, dst*count, count)
			if err != nil {
				return err
			}
			if dst == me {
				rseg, err := sliceSegment(rview, me*count, count)
				if err != nil {
					return err
				}
				if err := localCopySegment(rseg, seg, 0, 0, count); err != nil {
					return err
				}
				continue
			}
			r, err := e.comm.Isend(seg, count, sdt, dst, collTag)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		err = e.comm.WaitallIgnore(reqs)
		if err == nil {
			e.noteText(e.regionSeq, "sync", fmt.Sprintf("MPI_Waitall over %d request(s) (all-to-all)", len(reqs)))
		}
		return err
	default:
		return fmt.Errorf("core: unknown collective kind %v", kind)
	}
}

// collSHMEM lowers the pattern to put/flag sequences on symmetric buffers.
func (e *Env) collSHMEM(kind CollKind, root int, sb, rb *bufInfo, count int) error {
	if e.shm == nil {
		return fmt.Errorf("core: TARGET_COMM_SHMEM requires a SHMEM context")
	}
	if rb.class != bufSym {
		return fmt.Errorf("core: comm_coll rbuf (%T): %w", rb.raw, ErrNotSymmetric)
	}
	me := e.comm.Rank()
	n := e.comm.Size()
	led := newLedger()
	srcSlice := func() (any, int, error) {
		switch sb.class {
		case bufSym:
			return sb.sym.LocalAny(e.shm), sb.symOff, nil
		case bufPrimSlice:
			return sb.raw, 0, nil
		}
		return nil, 0, fmt.Errorf("core: comm_coll sbuf class unsupported for SHMEM")
	}
	switch kind {
	case OneToMany:
		if me == root {
			src, off, err := srcSlice()
			if err != nil {
				return err
			}
			for pe := 0; pe < n; pe++ {
				wpe := e.comm.WorldRank(pe)
				if err := rb.sym.PutAny(e.shm, wpe, src, off, rb.symOff, count); err != nil {
					return err
				}
				if pe != me {
					led.noteShmemDst(wpe)
				}
			}
		} else {
			led.noteShmemSrc(e.comm.WorldRank(root))
		}
	case ManyToOne:
		src, off, err := srcSlice()
		if err != nil {
			return err
		}
		wroot := e.comm.WorldRank(root)
		if err := rb.sym.PutAny(e.shm, wroot, src, off, rb.symOff+me*count, count); err != nil {
			return err
		}
		if me != root {
			led.noteShmemDst(wroot)
		} else {
			for pe := 0; pe < n; pe++ {
				if pe != me {
					led.noteShmemSrc(e.comm.WorldRank(pe))
				}
			}
		}
	case AllToAll:
		src, off, err := srcSlice()
		if err != nil {
			return err
		}
		for pe := 0; pe < n; pe++ {
			wpe := e.comm.WorldRank(pe)
			if err := rb.sym.PutAny(e.shm, wpe, src, off+pe*count, rb.symOff+me*count, count); err != nil {
				return err
			}
			if pe != me {
				led.noteShmemDst(wpe)
				led.noteShmemSrc(wpe)
			}
		}
	default:
		return fmt.Errorf("core: unknown collective kind %v", kind)
	}
	return e.flush(led, e.regionSeq)
}

// localCopySegment copies count elements between primitive slices with an
// element offset each, using reflection (both slices have the same element
// type by construction).
func localCopySegment(dst, src any, dstOff, srcOff, count int) error {
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Slice || sv.Kind() != reflect.Slice || dv.Type() != sv.Type() {
		return fmt.Errorf("core: cannot copy %T <- %T", dst, src)
	}
	if dstOff+count > dv.Len() || srcOff+count > sv.Len() {
		return fmt.Errorf("core: copy segment out of range")
	}
	reflect.Copy(dv.Slice(dstOff, dstOff+count), sv.Slice(srcOff, srcOff+count))
	return nil
}

// sliceSegment returns slice[off:off+count] of a primitive slice.
func sliceSegment(s any, off, count int) (any, error) {
	rv := reflect.ValueOf(s)
	if rv.Kind() != reflect.Slice {
		return nil, fmt.Errorf("core: segment of non-slice %T", s)
	}
	if off < 0 || off+count > rv.Len() {
		return nil, fmt.Errorf("core: segment [%d,%d) out of slice of %d", off, off+count, rv.Len())
	}
	return rv.Slice(off, off+count).Interface(), nil
}
