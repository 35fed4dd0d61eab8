//go:build purego

package typemap

import "reflect"

// RawBytes reports ok=false in a purego build: without unsafe there is no
// native byte view, and the RMA data plane falls back to its reflection
// copy path (the correctness oracle).
func RawBytes(any) ([]byte, int, bool) { return nil, 0, false }

// TypeWord returns a stable, non-zero identity word for v's dynamic type.
// The purego build goes through reflect: the *rtype pointer inside a
// reflect.Type is the same identity the interface header carries.
func TypeWord(v any) uintptr {
	return reflect.ValueOf(reflect.TypeOf(v)).Pointer()
}

// SameWords reports false: the purego build does not read interface words.
func SameWords(any, any) bool { return false }
