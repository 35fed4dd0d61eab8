package mpi

import (
	"fmt"
	"reflect"

	"commintent/internal/model"
	"commintent/internal/typemap"
)

// Datatype describes the wire encoding of one buffer element: either a
// basic fixed-width type or a committed derived struct type.
type Datatype struct {
	name   string
	kind   typemap.Kind    // set for basic types
	layout *typemap.Layout // set for derived struct types
}

// Basic datatypes, the analogues of MPI_INT, MPI_DOUBLE, etc.
var (
	Int8    = &Datatype{name: "MPI_INT8", kind: typemap.KindInt8}
	Int16   = &Datatype{name: "MPI_INT16", kind: typemap.KindInt16}
	Int32   = &Datatype{name: "MPI_INT32", kind: typemap.KindInt32}
	Int64   = &Datatype{name: "MPI_INT64", kind: typemap.KindInt64}
	Uint16  = &Datatype{name: "MPI_UINT16", kind: typemap.KindUint16}
	Uint32  = &Datatype{name: "MPI_UINT32", kind: typemap.KindUint32}
	Uint64  = &Datatype{name: "MPI_UINT64", kind: typemap.KindUint64}
	Float32 = &Datatype{name: "MPI_FLOAT", kind: typemap.KindFloat32}
	Float64 = &Datatype{name: "MPI_DOUBLE", kind: typemap.KindFloat64}
	Byte    = &Datatype{name: "MPI_BYTE", kind: typemap.KindUint8}
	Packed  = &Datatype{name: "MPI_PACKED", kind: typemap.KindUint8}
)

// String returns the datatype's MPI-flavoured name.
func (d *Datatype) String() string { return d.name }

// Size reports the wire size of one element, in bytes.
func (d *Datatype) Size() int {
	if d.layout != nil {
		return d.layout.WireSize
	}
	return d.kind.Size()
}

// IsDerived reports whether this is a committed derived struct type.
func (d *Datatype) IsDerived() bool { return d.layout != nil }

// same reports whether d and o describe the same element type: the same
// basic kind, or derived types committed from the same Go struct.
func (d *Datatype) same(o *Datatype) bool {
	if d.layout != nil && o.layout != nil {
		return d.layout.GoType == o.layout.GoType
	}
	return d.layout == o.layout && d.kind == o.kind
}

// Layout exposes the derived layout (nil for basic types).
func (d *Datatype) Layout() *typemap.Layout { return d.layout }

// TypeCreateStruct builds and commits a derived datatype matching the struct
// type of example (a struct value, pointer to struct, or slice of struct).
// The modelled cost is the full commit cost; the directive layer's scope
// cache avoids repeating it.
func (c *Comm) TypeCreateStruct(example any) (*Datatype, error) {
	l, err := typemap.LayoutOf(example)
	if err != nil {
		return nil, err
	}
	c.clock().Advance(c.prof().MPITypeCommit)
	return &Datatype{name: "MPI_STRUCT(" + l.GoType.Name() + ")", layout: l}, nil
}

// encodeInto serialises count elements of buf according to d into dst
// (which must hold count*Size() bytes), returning the extra local cost
// (derived types pay a gather copy). Writing into a caller-supplied — and
// typically pooled — buffer keeps the hot send path allocation-free.
func (d *Datatype) encodeInto(p *model.Profile, dst []byte, buf any, count int) (model.Time, error) {
	if d.layout != nil {
		// NoEscape: the reflection walk would otherwise mark buf as leaking
		// and heap-box every caller's argument, including pure slice
		// traffic that never reaches this branch. Encode does not retain
		// the buffer past the call.
		if _, err := d.layout.Encode(dst, typemap.NoEscape(buf), count); err != nil {
			return 0, err
		}
		return p.MemcpyTime(count * d.Size()), nil
	}
	if err := checkSliceKind(buf, d); err != nil {
		return 0, err
	}
	if _, err := typemap.EncodeSlice(dst, buf, count); err != nil {
		return 0, err
	}
	return 0, nil
}

// decode deserialises wire bytes into buf, returning the extra local cost.
func (d *Datatype) decode(p *model.Profile, wire []byte, buf any, count int) (model.Time, error) {
	if d.layout != nil {
		if _, err := d.layout.Decode(wire, typemap.NoEscape(buf), count); err != nil {
			return 0, err
		}
		return p.MemcpyTime(count * d.Size()), nil
	}
	if err := checkSliceKind(buf, d); err != nil {
		return 0, err
	}
	if _, err := typemap.DecodeSlice(wire, buf, count); err != nil {
		return 0, err
	}
	return 0, nil
}

func checkSliceKind(buf any, d *Datatype) error {
	k, ok := typemap.SliceKind(buf)
	if !ok {
		// reflect.TypeOf instead of %T: the fmt verb would leak buf and
		// force an interface box on every (hot, non-erroring) call.
		return fmt.Errorf("mpi: buffer %s is not a primitive slice (datatype %s)", reflect.TypeOf(buf), d)
	}
	if k != d.kind {
		// MPI_PACKED and MPI_BYTE accept any byte buffer.
		if (d == Packed || d == Byte) && k == typemap.KindUint8 {
			return nil
		}
		return fmt.Errorf("mpi: buffer %s does not match datatype %s", reflect.TypeOf(buf), d)
	}
	return nil
}

// ElemCount reports how many elements of datatype d fit in buf (the
// buffer's capacity in elements), used for count inference. It also
// validates that the buffer's element type matches the datatype.
func ElemCount(buf any, d *Datatype) (int, error) {
	if d.layout != nil {
		return typemap.StructCount(typemap.NoEscape(buf), d.layout)
	}
	if err := checkSliceKind(buf, d); err != nil {
		return 0, err
	}
	n, _ := typemap.SliceLen(buf)
	return n, nil
}
