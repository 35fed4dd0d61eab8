package core

import (
	"fmt"
	"reflect"

	"commintent/internal/mpi"
	"commintent/internal/shmem"
	"commintent/internal/typemap"
)

// symView is a view into a symmetric array at an element offset, produced
// by At. It lets a directive address a sub-range of a symmetric buffer the
// way the paper's examples address &buf[p].
type symView struct {
	s   shmem.AnySlice
	off int
}

// At returns a view of the symmetric array s starting at element offset
// off, usable in SBuf/RBuf clauses. It is the directive-level analogue of
// passing &buf[off].
func At(s shmem.AnySlice, off int) any {
	return symView{s: s, off: off}
}

type bufClass int

const (
	bufPrimSlice bufClass = iota // []float64, []int32, ...
	bufStruct                    // *T or []T with struct T
	bufSym                       // shmem symmetric array (possibly offset)
)

// bufInfo is the lowering's view of one clause buffer.
type bufInfo struct {
	raw   any
	class bufClass

	sym    shmem.AnySlice
	symOff int

	layout *typemap.Layout // for bufStruct

	elems     int // element capacity available (after any offset)
	elemBytes int // wire bytes per element
	goElem    int // in-memory bytes per element (for range trimming)
	isArray   bool
	rng       bufRange

	// Resolved handles, filled lazily and reused across max_comm_iter
	// iterations once the bufInfo itself is cached by the Env: the typed
	// view handed to MPI, the resolved datatype, and the one-sided window.
	view any
	dt   *mpi.Datatype
	win  *mpi.Win
}

// BufID identifies a clause buffer: the key of the Env's handle cache, and
// what a front end's bound directive (see Env.Site) compares to decide that
// a named buffer is still the one it lowered. For symmetric buffers the
// (allocation id, view offset) pair is the identity; for local slices and
// struct pointers it is (type, base address, length) — the same triple
// winFor keys windows by. The key is three plain words (the type identity
// is the interface type word, not a reflect.Type), so the per-directive
// cache lookups hash fast.
//
// A BufID holds no reference to the storage it names, so it only stays
// meaningful while something else keeps that storage alive — the handle
// cache's bufInfo, a bound option list — and the address cannot be reused.
type BufID struct {
	typ uintptr // symTypeWord for symmetric buffers, else the dynamic type identity
	ptr uintptr // base address; the allocation id for symmetric buffers
	n   int     // length (1 for *struct); the view offset for symmetric buffers
}

// symTypeWord marks symmetric-buffer keys. Real type words are pointers
// into the binary's type metadata, never 1, so the spaces cannot collide.
// A whole-array reference and an At(s, 0) view of the same allocation
// intentionally share a key: they classify to the same bufInfo.
const symTypeWord uintptr = 1

// BufIDOf derives the identity of a clause buffer; ok=false means the value
// has none (nil, or a type no clause accepts) and must be classified from
// scratch.
func BufIDOf(v any) (BufID, bool) {
	switch b := v.(type) {
	case nil:
		return BufID{}, false
	case symView:
		return BufID{typ: symTypeWord, ptr: uintptr(b.s.SymID()), n: b.off}, true
	case shmem.AnySlice:
		return BufID{typ: symTypeWord, ptr: uintptr(b.SymID())}, true
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice:
		return BufID{typ: typemap.TypeWord(v), ptr: rv.Pointer(), n: rv.Len()}, true
	case reflect.Pointer:
		if rv.IsNil() {
			return BufID{}, false
		}
		return BufID{typ: typemap.TypeWord(v), ptr: rv.Pointer(), n: 1}, true
	default:
		return BufID{}, false
	}
}

// rangeFor returns the buffer's storage range trimmed to the directive's
// resolved count, so independent sub-ranges of one array (e.g. &buf[p] per
// iteration) are correctly seen as non-overlapping.
func (b *bufInfo) rangeFor(count int) bufRange {
	r := b.rng
	if count >= b.elems {
		return r
	}
	if r.sym {
		r.symEnd = r.symStart + count
		return r
	}
	if b.goElem > 0 {
		r.end = r.start + uintptr(count*b.goElem)
	}
	return r
}

// bufRange identifies a buffer's storage for the adjacency / independence
// analysis: two directives whose ranges overlap are dependent and force a
// synchronisation between them.
type bufRange struct {
	sym              bool
	symID            int
	start, end       uintptr // [start,end) in local address space when !sym
	symStart, symEnd int     // [start,end) element range when sym
}

func (r bufRange) overlaps(o bufRange) bool {
	if r.sym != o.sym {
		return false
	}
	if r.sym {
		return r.symID == o.symID && r.symStart < o.symEnd && o.symStart < r.symEnd
	}
	return r.start < o.end && o.start < r.end
}

// maxResolveCacheEntries bounds the handle cache so a loop materialising
// fresh slices every iteration cannot grow it without bound.
const maxResolveCacheEntries = 4096

// classify analyses one clause buffer, consulting the Env's handle cache
// first: across max_comm_iter iterations the same buffers reappear, and a
// hit skips the reflection walk and returns the bufInfo whose resolved
// window/symmetric handles are already warm. A cached struct buffer still
// pays the datatype-cache-hit lookup cost the uncached path would charge,
// so virtual time is unchanged.
func (e *Env) classify(v any) (*bufInfo, error) {
	key, cacheable := BufIDOf(v)
	if cacheable {
		if b, ok := e.resolve[key]; ok {
			e.reuse(b)
			return b, nil
		}
	}
	b, err := e.classifySlow(v)
	if err != nil {
		return nil, err
	}
	e.tele.resolveMisses.Inc()
	if cacheable && len(e.resolve) < maxResolveCacheEntries {
		e.resolve[key] = b
	}
	return b, nil
}

// reuse accounts for a classified buffer met again, in the handle cache or
// in a bound form: the hit is counted, and a struct buffer pays the
// datatype-cache lookup its classification would.
func (e *Env) reuse(b *bufInfo) {
	e.tele.resolveHits.Inc()
	if b.class == bufStruct {
		e.chargeLayout(true)
	}
}

// classifySlow analyses one clause buffer from scratch.
func (e *Env) classifySlow(v any) (*bufInfo, error) {
	switch b := v.(type) {
	case nil:
		return nil, fmt.Errorf("core: nil buffer in clause")
	case symView:
		if b.off < 0 || b.off > b.s.Len() {
			return nil, fmt.Errorf("core: At offset %d out of symmetric array of %d", b.off, b.s.Len())
		}
		return &bufInfo{
			raw: v, class: bufSym, sym: b.s, symOff: b.off,
			elems: b.s.Len() - b.off, elemBytes: b.s.ElemBytes(), goElem: b.s.ElemBytes(), isArray: true,
			rng: bufRange{sym: true, symID: b.s.SymID(), symStart: b.off, symEnd: b.s.Len()},
		}, nil
	case shmem.AnySlice:
		return &bufInfo{
			raw: v, class: bufSym, sym: b,
			elems: b.Len(), elemBytes: b.ElemBytes(), goElem: b.ElemBytes(), isArray: true,
			rng: bufRange{sym: true, symID: b.SymID(), symStart: 0, symEnd: b.Len()},
		}, nil
	}
	if k, ok := typemap.SliceKind(v); ok {
		rv := reflect.ValueOf(v)
		n := rv.Len()
		esz := int(rv.Type().Elem().Size())
		var start uintptr
		if n > 0 {
			start = rv.Pointer()
		}
		return &bufInfo{
			raw: v, class: bufPrimSlice,
			elems: n, elemBytes: k.Size(), goElem: esz, isArray: true,
			rng: bufRange{start: start, end: start + uintptr(n*esz)},
		}, nil
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() || rv.Elem().Kind() != reflect.Struct {
			return nil, fmt.Errorf("core: unsupported buffer %T (want symmetric array, primitive slice, *struct or []struct)", v)
		}
		l, hit, err := e.layouts.Get(v)
		if err != nil {
			return nil, err
		}
		e.chargeLayout(hit)
		return &bufInfo{
			raw: v, class: bufStruct, layout: l,
			elems: 1, elemBytes: l.WireSize, goElem: int(rv.Elem().Type().Size()), isArray: false,
			rng: bufRange{start: rv.Pointer(), end: rv.Pointer() + rv.Elem().Type().Size()},
		}, nil
	case reflect.Slice:
		if rv.Type().Elem().Kind() != reflect.Struct {
			return nil, fmt.Errorf("core: unsupported buffer %T", v)
		}
		l, hit, err := e.layouts.Get(v)
		if err != nil {
			return nil, err
		}
		e.chargeLayout(hit)
		var start uintptr
		if rv.Len() > 0 {
			start = rv.Pointer()
		}
		return &bufInfo{
			raw: v, class: bufStruct, layout: l,
			elems: rv.Len(), elemBytes: l.WireSize, goElem: int(rv.Type().Elem().Size()), isArray: true,
			rng: bufRange{start: start, end: start + uintptr(rv.Len())*rv.Type().Elem().Size()},
		}, nil
	default:
		return nil, fmt.Errorf("core: unsupported buffer %T (want symmetric array, primitive slice, *struct or []struct)", v)
	}
}

// datatype resolves the MPI datatype for a classified buffer. The result
// is cached on the bufInfo, so a buffer reused across iterations resolves
// its datatype once; a cached struct datatype still charges the
// scope-cache lookup the uncached path would.
func (e *Env) datatype(b *bufInfo) (*mpi.Datatype, error) {
	if b.dt != nil {
		if b.class == bufStruct {
			e.cacheHits(1)
		}
		return b.dt, nil
	}
	var (
		dt  *mpi.Datatype
		err error
	)
	switch b.class {
	case bufStruct:
		dt, err = e.structType(b.layout.GoType, b.raw)
	case bufPrimSlice:
		k, _ := typemap.SliceKind(b.raw)
		dt, err = basicDatatype(k)
	case bufSym:
		local := b.sym.LocalAny(e.shm)
		k, ok := typemap.SliceKind(local)
		if !ok {
			return nil, fmt.Errorf("core: symmetric array %s has no basic datatype", b.sym.TypeName())
		}
		dt, err = basicDatatype(k)
	default:
		return nil, fmt.Errorf("core: unclassified buffer")
	}
	if err != nil {
		return nil, err
	}
	b.dt = dt
	return dt, nil
}

func basicDatatype(k typemap.Kind) (*mpi.Datatype, error) {
	switch k {
	case typemap.KindInt8:
		return mpi.Int8, nil
	case typemap.KindInt16:
		return mpi.Int16, nil
	case typemap.KindInt32:
		return mpi.Int32, nil
	case typemap.KindInt64:
		return mpi.Int64, nil
	case typemap.KindUint8:
		return mpi.Byte, nil
	case typemap.KindUint16:
		return mpi.Uint16, nil
	case typemap.KindUint32:
		return mpi.Uint32, nil
	case typemap.KindUint64:
		return mpi.Uint64, nil
	case typemap.KindFloat32:
		return mpi.Float32, nil
	case typemap.KindFloat64:
		return mpi.Float64, nil
	default:
		return nil, fmt.Errorf("core: no MPI datatype for element kind %s", k)
	}
}

// mpiView returns the value to hand to the MPI layer for this buffer (for
// symmetric buffers, the local typed slice at the view offset). Symmetric
// views are materialised once — re-slicing through reflection boxes a new
// interface per call — and reused for the buffer's cached lifetime, which
// is sound because a symmetric allocation's backing arrays never move.
func (b *bufInfo) mpiView(e *Env) (any, error) {
	if b.class != bufSym {
		return b.raw, nil
	}
	if b.view != nil {
		return b.view, nil
	}
	local := b.sym.LocalAny(e.shm)
	rv := reflect.ValueOf(local)
	if b.symOff > rv.Len() {
		return nil, fmt.Errorf("core: symmetric view offset %d out of %d", b.symOff, rv.Len())
	}
	b.view = rv.Slice(b.symOff, rv.Len()).Interface()
	return b.view, nil
}

// inferCount implements the paper's count-inference rule: if count is
// omitted and at least one buffer is an array, the message size is the size
// of the smallest array; with only scalar (single-struct) buffers it is 1.
func inferCount(sbufs, rbufs []*bufInfo) (int, error) {
	best := -1
	anyArray := false
	for _, set := range [][]*bufInfo{sbufs, rbufs} {
		for _, b := range set {
			if b.isArray {
				anyArray = true
				if best == -1 || b.elems < best {
					best = b.elems
				}
			}
		}
	}
	if anyArray {
		return best, nil
	}
	// All buffers are scalar composites: a single element.
	for _, set := range [][]*bufInfo{sbufs, rbufs} {
		for _, b := range set {
			if b.class != bufStruct {
				return 0, ErrCountInference
			}
		}
	}
	return 1, nil
}
