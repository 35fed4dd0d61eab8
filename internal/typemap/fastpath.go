//go:build !purego

package typemap

import (
	"reflect"
	"unsafe"
)

// The zero-copy fast path: when a buffer's native in-memory representation
// is byte-identical to its wire encoding, Encode/EncodeSlice degenerate to
// a single bulk copy instead of a per-scalar reflection walk. That holds
// exactly when (a) the host is little-endian, since the wire format is
// little-endian, and (b) for composites, Go laid the struct out with no
// padding, so field offsets and total size match the densely packed wire
// layout. The `purego` build tag removes this file and every caller falls
// back to the reflection path, which stays the source of truth for
// correctness (the round-trip property tests assert byte equality).

// hostLittleEndian reports whether this platform stores integers
// little-endian, i.e. whether native scalar bytes equal wire bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// FastPathAvailable reports whether the zero-copy pack/unpack path can be
// used in this build on this platform.
func FastPathAvailable() bool { return hostLittleEndian }

// sliceRaw returns the raw backing bytes of a supported primitive slice,
// its element kind, and ok=true when the memmove fast path applies. The
// returned bytes alias v's storage.
func sliceRaw(v any) (raw []byte, k Kind, ok bool) {
	if !hostLittleEndian {
		return nil, 0, false
	}
	switch s := v.(type) {
	case []float64:
		return kindRaw(s, KindFloat64)
	case []float32:
		return kindRaw(s, KindFloat32)
	case []int64:
		return kindRaw(s, KindInt64)
	case []int32:
		return kindRaw(s, KindInt32)
	case []int16:
		return kindRaw(s, KindInt16)
	case []int8:
		return kindRaw(s, KindInt8)
	case []uint64:
		return kindRaw(s, KindUint64)
	case []uint32:
		return kindRaw(s, KindUint32)
	case []uint16:
		return kindRaw(s, KindUint16)
	default:
		// []byte / []uint8 is handled by the dedicated copy path in
		// EncodeSlice/DecodeSlice before this is consulted.
		return nil, 0, false
	}
}

// kindRaw is primRaw reporting the element kind in place of its size.
func kindRaw[T any](s []T, k Kind) ([]byte, Kind, bool) {
	var z T
	raw, _, _ := primRaw(s, int(unsafe.Sizeof(z)))
	return raw, k, true
}

// primRaw reinterprets a fixed-width primitive slice as its backing bytes.
func primRaw[T any](s []T, esize int) ([]byte, int, bool) {
	if len(s) == 0 {
		return nil, esize, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*esize), esize, true
}

// Elems returns the elements encoded in wire as a []T. When the host
// representation is the wire format and wire is aligned for T the result
// aliases wire (alias=true: writes through it are writes to the encoding);
// otherwise it is a decoded copy the caller must EncodeSlice back to make
// changes stick.
func Elems[T Number](wire []byte) (s []T, alias bool) {
	var z T
	n := len(wire) / int(unsafe.Sizeof(z))
	if n == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(wire))
	if hostLittleEndian && uintptr(p)%unsafe.Alignof(z) == 0 {
		return unsafe.Slice((*T)(p), n), true
	}
	return decodeElems[T](wire, n), false
}

// nativeLayoutMatches reports whether t's native layout is byte-identical
// to the computed wire layout: little-endian host, no padding anywhere
// (every field's native offset equals its wire displacement and the struct
// size equals the wire size). Fixed arrays of basics are contiguous in both
// representations, so they need no extra check.
func nativeLayoutMatches(t reflect.Type, fields []Field, wireSize int) bool {
	if !hostLittleEndian {
		return false
	}
	if t.Size() != uintptr(wireSize) {
		return false
	}
	for _, f := range fields {
		if t.Field(f.Index).Offset != uintptr(f.Offset) {
			return false
		}
	}
	return true
}

// structRaw returns the raw backing bytes of count struct values in v
// (a *T or []T matching the layout), ok=false when v does not qualify —
// mismatched types and bad counts fall through to the reflection path,
// which produces the canonical error.
func structRaw(l *Layout, v any, count int) (raw []byte, ok bool) {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() || rv.Type().Elem() != l.GoType || count != 1 {
			return nil, false
		}
		return unsafe.Slice((*byte)(rv.UnsafePointer()), l.GoType.Size()), true
	case reflect.Slice:
		if rv.Type().Elem() != l.GoType || count > rv.Len() {
			return nil, false
		}
		if count == 0 {
			return nil, true
		}
		n := count * int(l.GoType.Size())
		return unsafe.Slice((*byte)(rv.UnsafePointer()), n), true
	default:
		return nil, false
	}
}
