package mpi

import (
	"fmt"

	"commintent/internal/typemap"
)

// Reduction arithmetic over wire views. Collective buffers travel as the
// wire bytes of their elements (see wire in collectives.go); only a
// reduction has to see them as numbers, and it supports the element types
// the application layer reduces: float64, int64 and int32.

// checkReducible rejects datatypes foldWire has no arithmetic for.
func checkReducible(d *Datatype) error {
	if !d.IsDerived() {
		switch d.kind {
		case typemap.KindFloat64, typemap.KindInt64, typemap.KindInt32:
			return nil
		}
	}
	return fmt.Errorf("unsupported reduction datatype %s", d)
}

// foldWire combines the elements encoded in in into those encoded in acc,
// element-wise under op. Both hold the same number of elements of d.
func foldWire(d *Datatype, acc, in []byte, op Op) error {
	switch d.kind {
	case typemap.KindFloat64:
		return foldAs[float64](acc, in, op)
	case typemap.KindInt64:
		return foldAs[int64](acc, in, op)
	default:
		return foldAs[int32](acc, in, op)
	}
}

func foldAs[T int32 | int64 | float64](acc, in []byte, op Op) error {
	a, aliased := typemap.Elems[T](acc)
	b, _ := typemap.Elems[T](in)
	combineSlice(a, b[:len(a)], op)
	if aliased {
		return nil
	}
	_, err := typemap.EncodeSlice(acc, a, len(a))
	return err
}

func combineSlice[T int32 | int64 | float64](a, b []T, op Op) {
	switch op {
	case OpSum:
		for i := range a {
			a[i] += b[i]
		}
	case OpMax:
		for i := range a {
			if b[i] > a[i] {
				a[i] = b[i]
			}
		}
	case OpMin:
		for i := range a {
			if b[i] < a[i] {
				a[i] = b[i]
			}
		}
	}
}
