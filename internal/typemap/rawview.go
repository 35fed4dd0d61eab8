//go:build !purego

package typemap

import (
	"reflect"
	"unsafe"
)

// TypeWord returns a stable, non-zero identity word for v's dynamic type —
// the interface header's type pointer. Two values share a TypeWord exactly
// when they have the same dynamic type, which makes it a compact map-key
// ingredient for per-type caches on hot paths (a plain-old-data key hashes
// much faster than one embedding a reflect.Type interface). The purego
// build derives the same identity through reflect.
func TypeWord(v any) uintptr {
	return uintptr((*[2]unsafe.Pointer)(unsafe.Pointer(&v))[0])
}

// SameWords reports whether a and b have the same type and data words. A
// data word is the value's pointer or its immutable box, so while both are
// live, true means the same value; false means nothing (two boxes of one
// slice differ, and the purego build always reports false).
func SameWords(a, b any) bool {
	return *(*[2]unsafe.Pointer)(unsafe.Pointer(&a)) == *(*[2]unsafe.Pointer)(unsafe.Pointer(&b))
}

// RawBytes returns the raw in-memory backing bytes of slice v, its element
// size, and ok=true when this build can take the native view. It is the
// RMA data plane's bulk-copy primitive: a Put or Get between two buffers of
// the *same Go type* is one memmove over these views, which is correct on
// any host byte order and even for padded structs — both sides share one
// in-memory layout, so no wire (re)encoding happens. That is a weaker
// precondition than the Encode/Decode fast path (which additionally needs
// the native layout to equal the little-endian wire layout), so RawBytes
// deliberately does not consult nativeLayoutMatches or hostLittleEndian.
//
// Pointer-freedom of the element type is the caller's obligation (window
// and symmetric-heap creation validate it); RawBytes itself only
// reinterprets storage. The returned bytes alias v's backing array. In a
// purego build RawBytes always reports ok=false and callers fall back to
// the reflection copy path.
func RawBytes(v any) (raw []byte, esize int, ok bool) {
	switch s := v.(type) {
	case []byte:
		return s, 1, true
	case []float64:
		return primRaw(s, 8)
	case []float32:
		return primRaw(s, 4)
	case []int64:
		return primRaw(s, 8)
	case []int32:
		return primRaw(s, 4)
	case []int16:
		return primRaw(s, 2)
	case []int8:
		return primRaw(s, 1)
	case []uint64:
		return primRaw(s, 8)
	case []uint32:
		return primRaw(s, 4)
	case []uint16:
		return primRaw(s, 2)
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Slice {
		return nil, 0, false
	}
	esize = int(rv.Type().Elem().Size())
	if rv.Len() == 0 || esize == 0 {
		return nil, esize, true
	}
	return unsafe.Slice((*byte)(rv.UnsafePointer()), rv.Len()*esize), esize, true
}
