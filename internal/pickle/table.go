package pickle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// A Table describes once the types many streams share — registered names and
// struct definitions, each known by its index — so that a stream pickled
// against it (tableMagic, the table's fingerprint, then the value) refers to
// them by id. Such a stream never carries an inline definition, and the
// decoder refuses one: it depends on the table alone. The nil *Table means no
// table; its methods read and write self-describing streams.
type Table struct {
	raw       []byte
	fp        uint16
	names     [][]byte // registered names by id, views into raw
	nameIDs   map[string]uint64
	structs   []*streamType
	structIDs map[string]uint64 // wire-form definition -> id
}

// errNotInTable stops a table-relative encode at a type the table lacks.
var errNotInTable = &Error{msg: "value holds a type its table lacks"}

// built maps a fingerprint to the table NewTable built with it — nil once two
// different built tables share it — so the package's Unmarshal still decodes
// a stream this process pickled against a table of its own making. A Table's
// methods never consult it: the nil Table reads no such stream.
var built sync.Map // uint16 -> *Table

// NewTable builds the table for values of the roots' types: every struct
// definition they reach, where an interface reaches every registered type
// implementing it, and those types' names. It is sorted (definitions by
// canonical name) so the same types build the same bytes.
func NewTable(roots ...any) *Table {
	var names, defs []string // defs: sort key, NUL, wire-form definition
	seen := map[reflect.Type]bool{}
	var walk func(rt reflect.Type)
	walk = func(rt reflect.Type) {
		if seen[rt] {
			return
		}
		seen[rt] = true
		switch rt.Kind() {
		case reflect.Pointer, reflect.Array, reflect.Slice:
			walk(rt.Elem())
		case reflect.Map:
			walk(rt.Key())
			walk(rt.Elem())
		case reflect.Interface:
			regMu.RLock()
			reg := maps.Clone(nameToType)
			regMu.RUnlock()
			for n, t := range reg {
				if t.Implements(rt) {
					names = append(names, n)
					walk(t)
				}
			}
		case reflect.Struct:
			if usesBinaryMarshaling(rt) {
				return
			}
			defs = append(defs, rt.PkgPath()+"."+rt.Name()+"\x00"+string(typedefOf(rt)))
			for _, f := range fieldsOf(rt) {
				walk(rt.Field(f.index).Type)
			}
		}
	}
	for _, r := range roots {
		walk(reflect.TypeOf(r))
	}
	slices.Sort(names)
	names = slices.Compact(names)
	slices.Sort(defs)
	raw := binary.AppendUvarint(nil, uint64(len(names)))
	for _, n := range names {
		raw = appendLenPrefixed(raw, n)
	}
	raw = binary.AppendUvarint(raw, uint64(len(defs)))
	for _, d := range defs {
		raw = append(raw, d[strings.IndexByte(d, 0)+1:]...)
	}
	t, err := ParseTable(raw)
	if err != nil {
		panic("pickle: NewTable wrote a table it cannot read: " + err.Error())
	}
	if prev, loaded := built.LoadOrStore(t.fp, t); loaded && !bytes.Equal(prev.(*Table).Bytes(), raw) {
		built.Store(t.fp, (*Table)(nil))
	}
	return t
}

// ParseTable reads a table from the bytes Bytes produced, answering anything
// malformed with an *Error. Nil bytes are the nil Table.
func ParseTable(b []byte) (*Table, error) {
	if b == nil {
		return nil, nil
	}
	b = bytes.Clone(b)
	t := &Table{raw: b, fp: uint16(crc32.ChecksumIEEE(b)), nameIDs: map[string]uint64{}, structIDs: map[string]uint64{}}
	d := &decoder{data: b}
	n, err := d.readUvarint()
	if err == nil {
		err = d.claim(n, MaxElems, "table name count")
	}
	for i := uint64(0); err == nil && i < n; i++ {
		var name []byte
		if name, err = d.readName(4096); err == nil {
			t.nameIDs[string(name)] = uint64(len(t.names))
			t.names = append(t.names, name)
		}
	}
	if err == nil {
		n, err = d.readUvarint()
	}
	if err == nil {
		err = d.claim(n, MaxElems, "table struct count")
	}
	for i := uint64(0); err == nil && i < n; i++ {
		start := d.pos
		var st *streamType
		if st, err = d.readStructTypeDef(); err == nil {
			t.structIDs[string(b[start:d.pos])] = uint64(len(t.structs))
			t.structs = append(t.structs, st)
		}
	}
	if err == nil && d.pos != len(b) {
		err = errf("type table has %d trailing bytes", len(b)-d.pos)
	}
	if err == io.EOF {
		err = errf("type table is truncated")
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// IsTableRelative reports whether data, a pickled stream, was pickled
// against a Table.
func IsTableRelative(data []byte) bool { return len(data) > 0 && data[0] == tableMagic }

// Bytes is the table's encoding, which ParseTable reads back.
func (t *Table) Bytes() []byte {
	if t == nil {
		return nil
	}
	return t.raw
}

// String renders the table with its ids, for diagnostic tools.
func (t *Table) String() string {
	var sb strings.Builder
	for i, n := range t.names {
		fmt.Fprintf(&sb, "name %d: %s\n", i, n)
	}
	for i, st := range t.structs {
		fmt.Fprintf(&sb, "struct %d: %s {%s}\n", i, st.name, strings.Join(st.fields, ", "))
	}
	return sb.String()
}

// AppendMarshal pickles v against t onto the end of dst; a value holding a
// type t lacks, or a nil t, is pickled self-describing. On error the result
// holds dst's bytes alone.
func (t *Table) AppendMarshal(dst []byte, v any) ([]byte, error) {
	e := getEncoder()
	scratch := e.buf
	e.tab, e.buf = t, dst
	err := e.Encode(v)
	if err == errNotInTable {
		out := e.buf[:len(dst)]
		e.reset()
		e.buf = out
		err = e.Encode(v)
	}
	out := e.buf
	e.buf = scratch
	putEncoder(e)
	if err != nil {
		return out[:len(dst)], err
	}
	return out, nil
}

// Unmarshal reads a pickled value from data into the variable pointed to by
// ptr: a stream pickled against t, or a self-describing one.
func (t *Table) Unmarshal(data []byte, ptr any) error {
	_, err := t.decode(data, func(d *decoder) (any, error) { return nil, d.unmarshal(ptr) })
	return err
}

// UnmarshalAny is Unmarshal decoding generically, as the package's
// UnmarshalAny does.
func (t *Table) UnmarshalAny(data []byte) (any, error) {
	return t.decode(data, (*decoder).unmarshalAny)
}
