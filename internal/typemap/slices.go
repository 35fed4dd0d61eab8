package typemap

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// SliceKind reports the basic element kind of a primitive slice buffer
// ([]int32, []float64, ...). ok is false for anything else.
func SliceKind(v any) (Kind, bool) {
	t := reflect.TypeOf(v)
	if t == nil || t.Kind() != reflect.Slice {
		return KindInvalid, false
	}
	return kindOf(t.Elem())
}

// SliceLen reports the length of a primitive slice buffer.
func SliceLen(v any) (int, bool) {
	if _, ok := SliceKind(v); !ok {
		return 0, false
	}
	return reflect.ValueOf(v).Len(), true
}

// WireView returns the backing bytes of the primitive slice v when they are
// byte-identical to its wire encoding — always for []byte, otherwise on a
// little-endian host outside `purego` — with its element kind. The bytes
// alias v's storage, so a holder can read and write v's elements as wire
// data with no copy; ok=false means v has to be staged through
// EncodeSlice/DecodeSlice instead. v's slice header is not retained.
func WireView(v any) (raw []byte, k Kind, ok bool) {
	if s, isBytes := v.([]byte); isBytes {
		return s, KindUint8, true
	}
	return sliceRaw(v)
}

// Number is the set of element types Elems serves: the fixed-width
// primitives DecodeSlice decodes.
type Number interface {
	int8 | int16 | int32 | int64 | uint16 | uint32 | uint64 | float32 | float64
}

// decodeElems is Elems without a native view: a fresh slice decoded from
// wire.
func decodeElems[T Number](wire []byte, n int) []T {
	s := make([]T, n)
	// Cannot fail: []T is a supported primitive slice of exactly n elements
	// and wire holds at least n of them.
	_, _ = DecodeSlice(wire, s, n)
	return s
}

// EncodeSlice serialises the first count elements of the primitive slice v
// into dst, returning bytes written. []byte moves with a plain copy; other
// fixed-width primitive slices take the zero-copy bulk path when the host
// representation matches the wire format, and the per-element reflection
// walk otherwise (always, under `purego`).
func EncodeSlice(dst []byte, v any, count int) (int, error) {
	if s, ok := v.([]byte); ok {
		fastEncodes.Add(1)
		return encBytes(dst, s, count)
	}
	if raw, k, ok := sliceRaw(v); ok {
		esize := k.Size()
		slen := 0
		if esize > 0 {
			slen = len(raw) / esize
		}
		if count > slen {
			return 0, fmt.Errorf("typemap: count %d exceeds buffer length %d", count, slen)
		}
		need := count * esize
		if len(dst) < need {
			return 0, fmt.Errorf("typemap: encode needs %d bytes, have %d", need, len(dst))
		}
		copy(dst[:need], raw[:need])
		fastEncodes.Add(1)
		return need, nil
	}
	reflectEncodes.Add(1)
	return encodeSliceReflect(dst, v, count)
}

func encodeSliceReflect(dst []byte, v any, count int) (int, error) {
	switch s := v.(type) {
	case []byte:
		return encBytes(dst, s, count)
	case []float64:
		return encFixed(dst, len(s), count, 8, func(d []byte, i int) {
			binary.LittleEndian.PutUint64(d, math.Float64bits(s[i]))
		})
	case []float32:
		return encFixed(dst, len(s), count, 4, func(d []byte, i int) {
			binary.LittleEndian.PutUint32(d, math.Float32bits(s[i]))
		})
	case []int32:
		return encFixed(dst, len(s), count, 4, func(d []byte, i int) {
			binary.LittleEndian.PutUint32(d, uint32(s[i]))
		})
	case []int64:
		return encFixed(dst, len(s), count, 8, func(d []byte, i int) {
			binary.LittleEndian.PutUint64(d, uint64(s[i]))
		})
	case []uint32:
		return encFixed(dst, len(s), count, 4, func(d []byte, i int) {
			binary.LittleEndian.PutUint32(d, s[i])
		})
	case []uint64:
		return encFixed(dst, len(s), count, 8, func(d []byte, i int) {
			binary.LittleEndian.PutUint64(d, s[i])
		})
	case []uint16:
		return encFixed(dst, len(s), count, 2, func(d []byte, i int) {
			binary.LittleEndian.PutUint16(d, s[i])
		})
	case []int16:
		return encFixed(dst, len(s), count, 2, func(d []byte, i int) {
			binary.LittleEndian.PutUint16(d, uint16(s[i]))
		})
	case []int8:
		return encFixed(dst, len(s), count, 1, func(d []byte, i int) { d[0] = byte(s[i]) })
	default:
		// reflect.TypeOf instead of %T: the fmt verb would leak v and force
		// an interface box on every (hot, non-erroring) call.
		return 0, fmt.Errorf("typemap: unsupported slice buffer type %s", reflect.TypeOf(v))
	}
}

// DecodeSlice deserialises count elements from src into the primitive slice
// v, using the same bulk/reflection dispatch as EncodeSlice.
func DecodeSlice(src []byte, v any, count int) (int, error) {
	if s, ok := v.([]byte); ok {
		fastDecodes.Add(1)
		return decBytes(src, s, count)
	}
	if raw, k, ok := sliceRaw(v); ok {
		esize := k.Size()
		slen := 0
		if esize > 0 {
			slen = len(raw) / esize
		}
		if count > slen {
			return 0, fmt.Errorf("typemap: count %d exceeds buffer length %d", count, slen)
		}
		need := count * esize
		if len(src) < need {
			return 0, fmt.Errorf("typemap: decode needs %d bytes, have %d", need, len(src))
		}
		copy(raw[:need], src[:need])
		fastDecodes.Add(1)
		return need, nil
	}
	reflectDecodes.Add(1)
	return decodeSliceReflect(src, v, count)
}

func decodeSliceReflect(src []byte, v any, count int) (int, error) {
	switch s := v.(type) {
	case []byte:
		return decBytes(src, s, count)
	case []float64:
		return decFixed(src, len(s), count, 8, func(d []byte, i int) {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(d))
		})
	case []float32:
		return decFixed(src, len(s), count, 4, func(d []byte, i int) {
			s[i] = math.Float32frombits(binary.LittleEndian.Uint32(d))
		})
	case []int32:
		return decFixed(src, len(s), count, 4, func(d []byte, i int) {
			s[i] = int32(binary.LittleEndian.Uint32(d))
		})
	case []int64:
		return decFixed(src, len(s), count, 8, func(d []byte, i int) {
			s[i] = int64(binary.LittleEndian.Uint64(d))
		})
	case []uint32:
		return decFixed(src, len(s), count, 4, func(d []byte, i int) {
			s[i] = binary.LittleEndian.Uint32(d)
		})
	case []uint64:
		return decFixed(src, len(s), count, 8, func(d []byte, i int) {
			s[i] = binary.LittleEndian.Uint64(d)
		})
	case []uint16:
		return decFixed(src, len(s), count, 2, func(d []byte, i int) {
			s[i] = binary.LittleEndian.Uint16(d)
		})
	case []int16:
		return decFixed(src, len(s), count, 2, func(d []byte, i int) {
			s[i] = int16(binary.LittleEndian.Uint16(d))
		})
	case []int8:
		return decFixed(src, len(s), count, 1, func(d []byte, i int) { s[i] = int8(d[0]) })
	default:
		return 0, fmt.Errorf("typemap: unsupported slice buffer type %s", reflect.TypeOf(v))
	}
}

func encBytes(dst, s []byte, count int) (int, error) {
	if count > len(s) {
		return 0, fmt.Errorf("typemap: count %d exceeds buffer length %d", count, len(s))
	}
	if len(dst) < count {
		return 0, fmt.Errorf("typemap: encode needs %d bytes, have %d", count, len(dst))
	}
	copy(dst, s[:count])
	return count, nil
}

func decBytes(src, s []byte, count int) (int, error) {
	if count > len(s) {
		return 0, fmt.Errorf("typemap: count %d exceeds buffer length %d", count, len(s))
	}
	if len(src) < count {
		return 0, fmt.Errorf("typemap: decode needs %d bytes, have %d", count, len(src))
	}
	copy(s[:count], src[:count])
	return count, nil
}

func encFixed(dst []byte, slen, count, esize int, put func([]byte, int)) (int, error) {
	if count > slen {
		return 0, fmt.Errorf("typemap: count %d exceeds buffer length %d", count, slen)
	}
	need := count * esize
	if len(dst) < need {
		return 0, fmt.Errorf("typemap: encode needs %d bytes, have %d", need, len(dst))
	}
	for i := 0; i < count; i++ {
		put(dst[i*esize:], i)
	}
	return need, nil
}

func decFixed(src []byte, slen, count, esize int, get func([]byte, int)) (int, error) {
	if count > slen {
		return 0, fmt.Errorf("typemap: count %d exceeds buffer length %d", count, slen)
	}
	need := count * esize
	if len(src) < need {
		return 0, fmt.Errorf("typemap: decode needs %d bytes, have %d", need, len(src))
	}
	for i := 0; i < count; i++ {
		get(src[i*esize:], i)
	}
	return need, nil
}
