package pickle

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
)

// Generic decoding: reading a pickle stream without knowing the Go types it
// was written from. This serves two purposes. First, the typed decoder uses
// it to skip struct fields the target type no longer has. Second, diagnostic
// tools (cmd/logdump) use it to render checkpoints and log entries written
// by any program.

// A GenericStruct is the generic decoding of a pickled struct: its stream
// type name and its fields in stream order.
type GenericStruct struct {
	Name   string
	Fields []GenericField
}

// A GenericField is one named field of a GenericStruct.
type GenericField struct {
	Name  string
	Value any
}

// A GenericMap is the generic decoding of a pickled map, as ordered
// key/value pairs (keys decoded generically need not be comparable, so a Go
// map cannot represent them).
type GenericMap []GenericKV

// A GenericKV is one entry of a GenericMap.
type GenericKV struct {
	Key, Value any
}

// A GenericIface is the generic decoding of an interface-typed value: the
// registered concrete type name and the generically decoded value.
type GenericIface struct {
	TypeName string
	Value    any
}

// unmarshalAny decodes the value in d.data generically.
func (d *decoder) unmarshalAny() (any, error) {
	tag, err := d.start()
	if err != nil {
		return nil, err
	}
	v, err := d.decodeAnyTagged(tag)
	return v, midValue(err)
}

// skipTagged consumes the value whose tag byte has already been read,
// discarding it. It shares the decoder's identity table so that shared
// objects defined inside skipped fields still resolve from kept fields.
func (d *decoder) skipTagged(tag byte) error {
	_, err := d.decodeAnyTagged(tag)
	return err
}

func (d *decoder) decodeAny() (any, error) {
	tag, err := d.readByte()
	if err != nil {
		return nil, err
	}
	return d.decodeAnyTagged(tag)
}

func (d *decoder) decodeAnyTagged(tag byte) (any, error) {
	switch tag {
	case tNil:
		return nil, nil
	case tFalse:
		return false, nil
	case tTrue:
		return true, nil
	case tInt:
		return d.readVarint()
	case tUint:
		return d.readUvarint()
	case tFloat32:
		var b [4]byte
		if err := d.readFull(b[:]); err != nil {
			return nil, err
		}
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[:]))), nil
	case tFloat64:
		return d.readFloat64()
	case tComplex:
		re, err := d.readFloat64()
		if err != nil {
			return nil, err
		}
		im, err := d.readFloat64()
		if err != nil {
			return nil, err
		}
		return complex(re, im), nil
	case tString:
		return d.readString(MaxStringLen)
	case tBytes, tBinary:
		s, err := d.readString(MaxStringLen)
		if err != nil {
			return nil, err
		}
		return []byte(s), nil
	case tSlice, tArray:
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if n > MaxElems {
			return nil, errf("slice length %d exceeds limit %d", n, MaxElems)
		}
		if err := d.enter(); err != nil {
			return nil, err
		}
		out := make([]any, 0, min(n, 4096)) // grown by what the stream holds, not what it claims
		for range n {
			v, err := d.decodeAny()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		d.depth--
		return out, nil
	case tMap:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if n > MaxElems {
			return nil, errf("map length %d exceeds limit %d", n, MaxElems)
		}
		if err := d.enter(); err != nil {
			return nil, err
		}
		hole := new(any)
		d.setRef(id, reflect.ValueOf(hole))
		m := make(GenericMap, 0, min(n, 4096))
		for i := uint64(0); i < n; i++ {
			k, err := d.decodeAny()
			if err != nil {
				return nil, err
			}
			v, err := d.decodeAny()
			if err != nil {
				return nil, err
			}
			m = append(m, GenericKV{Key: k, Value: v})
		}
		d.depth--
		*hole = m
		return m, nil
	case tStruct:
		stype, err := d.readStructType()
		if err != nil {
			return nil, err
		}
		if err := d.enter(); err != nil {
			return nil, err
		}
		gs := GenericStruct{Name: stype.name, Fields: make([]GenericField, len(stype.fields))}
		for i, fname := range stype.fields {
			v, err := d.decodeAny()
			if err != nil {
				return nil, err
			}
			gs.Fields[i] = GenericField{Name: fname, Value: v}
		}
		d.depth--
		return gs, nil
	case tPtr:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if err := d.enter(); err != nil {
			return nil, err
		}
		hole := new(any)
		d.setRef(id, reflect.ValueOf(hole))
		v, err := d.decodeAny()
		if err != nil {
			return nil, err
		}
		d.depth--
		*hole = v
		return hole, nil
	case tRef:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		rv, ok := d.refs[id]
		if !ok {
			return nil, errf("reference to undefined object %d", id)
		}
		return rv.Interface(), nil
	case tIface, tIfaceID:
		nb, err := d.ifaceName(tag)
		if err != nil {
			return nil, err
		}
		name := string(nb) // before the next read reuses nb's storage
		if err := d.enter(); err != nil {
			return nil, err
		}
		v, err := d.decodeAny()
		if err != nil {
			return nil, err
		}
		d.depth--
		return GenericIface{TypeName: name, Value: v}, nil
	default:
		return nil, errf("invalid tag byte %#x", tag)
	}
}

// Format renders a generically decoded value as indented text, for
// diagnostic tools.
func Format(v any) string {
	var sb strings.Builder
	formatInto(&sb, v, 0, make(map[*any]bool))
	return sb.String()
}

func formatInto(sb *strings.Builder, v any, indent int, seen map[*any]bool) {
	pad := strings.Repeat("  ", indent)
	switch x := v.(type) {
	case nil:
		sb.WriteString("nil")
	case GenericStruct:
		fmt.Fprintf(sb, "%s {", x.Name)
		for _, f := range x.Fields {
			fmt.Fprintf(sb, "\n%s  %s: ", pad, f.Name)
			formatInto(sb, f.Value, indent+1, seen)
		}
		fmt.Fprintf(sb, "\n%s}", pad)
	case GenericMap:
		sb.WriteString("map {")
		for _, kv := range x {
			fmt.Fprintf(sb, "\n%s  ", pad)
			formatInto(sb, kv.Key, indent+1, seen)
			sb.WriteString(": ")
			formatInto(sb, kv.Value, indent+1, seen)
		}
		fmt.Fprintf(sb, "\n%s}", pad)
	case GenericIface:
		fmt.Fprintf(sb, "(%s) ", x.TypeName)
		formatInto(sb, x.Value, indent, seen)
	case []any:
		sb.WriteString("[")
		for i, e := range x {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatInto(sb, e, indent, seen)
		}
		sb.WriteString("]")
	case *any:
		if seen[x] {
			sb.WriteString("<cycle>")
			return
		}
		seen[x] = true
		sb.WriteString("&")
		formatInto(sb, *x, indent, seen)
		delete(seen, x)
	case string:
		fmt.Fprintf(sb, "%q", x)
	case []byte:
		fmt.Fprintf(sb, "0x%x", x)
	default:
		fmt.Fprintf(sb, "%v", x)
	}
}
