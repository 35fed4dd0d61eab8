//go:build purego

package typemap

import "reflect"

// The purego build is the escape hatch the data plane falls back to when
// unsafe bulk copies are unwanted (auditing, exotic platforms, or CI
// cross-checking the reflection path): every fast-path probe reports
// "not applicable" and Encode/Decode run the reflection walk exclusively.

// FastPathAvailable reports whether the zero-copy pack/unpack path can be
// used in this build; never in a purego build.
func FastPathAvailable() bool { return false }

// NoEscape is the identity function in a purego build: without unsafe there
// is no way to hide a value from escape analysis, so hot callers pay one
// interface-box allocation per call.
func NoEscape(v any) any { return v }

func sliceRaw(any) ([]byte, Kind, bool) { return nil, 0, false }

// Elems always decodes in a purego build: there is no native view to alias.
func Elems[T Number](wire []byte) (s []T, alias bool) {
	var z T
	return decodeElems[T](wire, len(wire)/int(reflect.TypeOf(z).Size())), false
}

func nativeLayoutMatches(reflect.Type, []Field, int) bool { return false }

func structRaw(*Layout, any, int) ([]byte, bool) { return nil, false }
