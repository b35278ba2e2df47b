package pickle

import (
	"encoding"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"sort"
	"sync"
)

// Decoding mirrors the encoder's compiled-plan design: the first decode
// into a Go type compiles a per-type decode program (overflow checks, field
// tables and element programs resolved ahead of time) cached in a
// package-wide sync.Map, so steady-state Unmarshal walks no reflection
// trees. Every decode reads straight from the caller's byte slice on a
// pooled decoder, so a claimed length is checked against the bytes left
// before anything is allocated for it.

// A decoder reads one pickled value from a byte slice — the inverse of
// Marshal. Pointer/map identity is scoped to the one decoded value graph.
type decoder struct {
	data  []byte
	pos   int
	tab   *Table // the stream's type table, when it was pickled against one
	types []*streamType

	// Per-value-graph state: the identity table for shared pointers and
	// maps, and the recursion depth.
	refs  map[uint64]reflect.Value
	depth int
}

// streamType is a struct type as described by the stream: its printed name
// (diagnostics only — matching is by field name) and its field names in
// stream order. Instances are interned by their raw definition bytes, so the
// per-target field match below is computed once per (stream type, target
// type) pair process-wide.
type streamType struct {
	name   string
	fields []string
	match  sync.Map // *structDecPlan -> []int (stream field -> plan slot, -1 = skip)
}

// matchFor returns, for each stream field in order, the plan slot it decodes
// into, or -1 when the target type has no such field.
func (st *streamType) matchFor(p *structDecPlan) []int {
	if m, ok := st.match.Load(p); ok {
		return m.([]int)
	}
	m := make([]int, len(st.fields))
	for i, name := range st.fields {
		slot, ok := p.byName[name]
		if !ok {
			slot = -1
		}
		m[i] = slot
	}
	st.match.Store(p, m)
	return m
}

// typeIntern deduplicates stream-type definitions across decoders, keyed by
// the raw definition bytes. The lookup on the hot path allocates nothing.
var typeIntern struct {
	sync.RWMutex
	m map[string]*streamType
}

// unmarshal decodes the value in d.data into the variable pointed to by
// ptr, which must be a non-nil pointer.
func (d *decoder) unmarshal(ptr any) error {
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errf("Unmarshal target must be a non-nil pointer, got %T", ptr)
	}
	tag, err := d.start()
	if err != nil {
		return err
	}
	elem := rv.Elem()
	return midValue(decoderOf(elem.Type())(d, elem, tag))
}

// start reads the stream's header and the tag byte of its value.
func (d *decoder) start() (byte, error) {
	if err := d.header(); err != nil {
		return 0, err
	}
	d.refs = reuseMap(d.refs)
	d.depth = 0
	return d.readByte()
}

// midValue reports a stream that ends inside a value as the malformed stream
// it is: io.EOF is only for one that ends before a value starts.
func midValue(err error) error {
	if err == io.EOF {
		return errf("unexpected EOF: the stream ends inside a value")
	}
	return err
}

func (d *decoder) header() error {
	b, err := d.readByte()
	if err != nil {
		return err
	}
	switch b {
	case magic:
		d.tab = nil
	case tableMagic:
		var want uint16
		for i := range 2 { // byte by byte: a slice of a local array would escape
			c, err := d.readByte()
			if err != nil {
				return midValue(err)
			}
			want |= uint16(c) << (8 * i)
		}
		if d.tab == nil || d.tab.fp != want {
			return errf("stream was pickled against type table %04x, which this reader lacks", want)
		}
	default:
		return errf("bad magic byte %#x: not a pickle stream", b)
	}
	return nil
}

// claim checks a length the stream claims against limit and — every element
// taking at least one byte — against the bytes left, before anything is
// allocated for it.
func (d *decoder) claim(n, limit uint64, what string) error {
	if n > limit {
		return errf("%s %d exceeds limit %d", what, n, limit)
	}
	if n > uint64(len(d.data)-d.pos) {
		return errf("%s %d exceeds the %d bytes left", what, n, len(d.data)-d.pos)
	}
	return nil
}

// enter counts one level of value nesting, bounding what a hostile stream
// can make the decoder recurse.
func (d *decoder) enter() error {
	d.depth++
	if d.depth > MaxDepth {
		return errf("stream exceeds maximum depth %d", MaxDepth)
	}
	return nil
}

func (d *decoder) setRef(id uint64, v reflect.Value) {
	if d.refs == nil {
		d.refs = make(map[uint64]reflect.Value)
	}
	d.refs[id] = v
}

func (d *decoder) readByte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, io.EOF
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) readUvarint() (uint64, error) {
	u, n := binary.Uvarint(d.data[d.pos:])
	if n > 0 {
		d.pos += n
		return u, nil
	}
	if n == 0 {
		if d.pos >= len(d.data) {
			return 0, io.EOF
		}
		return 0, errf("truncated stream")
	}
	return 0, errf("varint overflows a 64-bit integer")
}

// readVarint reads a zig-zag varint, as binary.AppendVarint wrote it.
func (d *decoder) readVarint() (int64, error) {
	u, err := d.readUvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

func (d *decoder) readFull(p []byte) error {
	if len(d.data)-d.pos < len(p) {
		return errf("truncated stream")
	}
	copy(p, d.data[d.pos:])
	d.pos += len(p)
	return nil
}

func (d *decoder) readString(limit uint64) (string, error) {
	b, err := d.readName(limit)
	return string(b), err
}

// readName reads a length-prefixed name or string as a view into the input.
// It exists so the hot interface-type lookup allocates nothing.
func (d *decoder) readName(limit uint64) ([]byte, error) {
	n, err := d.readUvarint()
	if err == nil {
		err = d.claim(n, limit, "string length")
	}
	if err != nil {
		return nil, err
	}
	s := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return s, nil
}

func (d *decoder) readFloat64() (float64, error) {
	var b [8]byte
	if err := d.readFull(b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

// A decFn is one compiled decode program: given the already-read tag byte
// of the next stream value, it decodes that value into v, which must be
// settable and of the program's fixed static type.
type decFn func(d *decoder, v reflect.Value, tag byte) error

// decPlans caches the compiled per-type decode programs.
var decPlans sync.Map // reflect.Type -> decFn

// decoderOf returns rt's compiled decode program, compiling it on first
// use.
func decoderOf(rt reflect.Type) decFn {
	if f, ok := decPlans.Load(rt); ok {
		return f.(decFn)
	}
	var (
		wg sync.WaitGroup
		fn decFn
	)
	wg.Add(1)
	stub := decFn(func(d *decoder, v reflect.Value, tag byte) error {
		wg.Wait()
		return fn(d, v, tag)
	})
	if actual, loaded := decPlans.LoadOrStore(rt, stub); loaded {
		return actual.(decFn)
	}
	fn = buildDecoder(rt)
	wg.Done()
	decPlans.Store(rt, fn)
	codec.decPlanCompiles.Add(1)
	return fn
}

func buildDecoder(rt reflect.Type) decFn {
	switch rt.Kind() {
	case reflect.Bool:
		return decBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return decInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return decUint
	case reflect.Float32, reflect.Float64:
		return decFloat
	case reflect.Complex64, reflect.Complex128:
		return decComplex
	case reflect.String:
		return decString
	case reflect.Slice:
		if rt.Elem().Kind() == reflect.Uint8 {
			return buildBytesDecoder(rt)
		}
		if rt.Elem().Implements(mapPairType) {
			return buildPairSliceDecoder(rt)
		}
		return buildSliceDecoder(rt)
	case reflect.Array:
		return buildArrayDecoder(rt)
	case reflect.Map:
		return buildMapDecoder(rt)
	case reflect.Struct:
		return buildStructDecoder(rt)
	case reflect.Pointer:
		return buildPointerDecoder(rt)
	case reflect.Interface:
		return decIface
	default:
		return func(d *decoder, v reflect.Value, tag byte) error {
			return errf("cannot decode into value of kind %v (%v)", rt.Kind(), rt)
		}
	}
}

// tolerant handles the stream tags every program accepts in its default
// case, preserving encoding/gob-style pointer-level tolerance: a pointer
// stream value decodes into a non-pointer target by dereferencing (the
// mirror case lives in the pointer program), a shared reference resolves
// through the identity table, and an interface-pickled value decodes into
// its own concrete type.
func (d *decoder) tolerant(v reflect.Value, tag byte, self decFn) error {
	switch tag {
	case tNil:
		switch v.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Interface:
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		return errf("stream has nil but target is %v", v.Type())
	case tPtr:
		id, err := d.readUvarint()
		if err != nil {
			return err
		}
		if v.CanAddr() {
			d.setRef(id, v.Addr())
		}
		if err := d.enter(); err != nil {
			return err
		}
		tag2, err := d.readByte()
		if err != nil {
			return err
		}
		err = self(d, v, tag2)
		d.depth--
		return err
	case tRef:
		return d.decodeRef(v)
	case tIface, tIfaceID:
		cv, err := d.decodeConcrete(tag)
		if err != nil {
			return err
		}
		if rt := cv.Type(); rt != v.Type() {
			n, _ := lookupName(rt)
			return errf("stream has %q but target is %v", n, v.Type())
		}
		v.Set(cv)
		return nil
	default:
		return mismatch(tag, v)
	}
}

func (d *decoder) decodeRef(v reflect.Value) error {
	id, err := d.readUvarint()
	if err != nil {
		return err
	}
	rv, ok := d.refs[id]
	if !ok {
		return errf("reference to undefined object %d", id)
	}
	if !rv.Type().AssignableTo(v.Type()) {
		return errf("shared object %d has type %v, target wants %v", id, rv.Type(), v.Type())
	}
	v.Set(rv)
	return nil
}

func decBool(d *decoder, v reflect.Value, tag byte) error {
	switch tag {
	case tFalse:
		v.SetBool(false)
		return nil
	case tTrue:
		v.SetBool(true)
		return nil
	default:
		return d.tolerant(v, tag, decBool)
	}
}

func decInt(d *decoder, v reflect.Value, tag byte) error {
	if tag != tInt {
		return d.tolerant(v, tag, decInt)
	}
	i, err := d.readVarint()
	if err != nil {
		return err
	}
	if v.OverflowInt(i) {
		return errf("value %d overflows %v", i, v.Type())
	}
	v.SetInt(i)
	return nil
}

func decUint(d *decoder, v reflect.Value, tag byte) error {
	if tag != tUint {
		return d.tolerant(v, tag, decUint)
	}
	u, err := d.readUvarint()
	if err != nil {
		return err
	}
	if v.OverflowUint(u) {
		return errf("value %d overflows %v", u, v.Type())
	}
	v.SetUint(u)
	return nil
}

func decFloat(d *decoder, v reflect.Value, tag byte) error {
	switch tag {
	case tFloat32:
		var b [4]byte
		if err := d.readFull(b[:]); err != nil {
			return err
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(b[:]))))
		return nil
	case tFloat64:
		f, err := d.readFloat64()
		if err != nil {
			return err
		}
		if v.Kind() == reflect.Float32 && v.OverflowFloat(f) {
			return errf("value %g overflows float32", f)
		}
		v.SetFloat(f)
		return nil
	default:
		return d.tolerant(v, tag, decFloat)
	}
}

func decComplex(d *decoder, v reflect.Value, tag byte) error {
	if tag != tComplex {
		return d.tolerant(v, tag, decComplex)
	}
	re, err := d.readFloat64()
	if err != nil {
		return err
	}
	im, err := d.readFloat64()
	if err != nil {
		return err
	}
	v.SetComplex(complex(re, im))
	return nil
}

func decString(d *decoder, v reflect.Value, tag byte) error {
	if tag != tString && tag != tBytes {
		return d.tolerant(v, tag, decString)
	}
	s, err := d.readString(MaxStringLen)
	if err != nil {
		return err
	}
	v.SetString(s)
	return nil
}

func buildBytesDecoder(rt reflect.Type) decFn {
	elem := decoderOf(rt.Elem())
	var self decFn
	self = func(d *decoder, v reflect.Value, tag byte) error {
		switch tag {
		case tNil:
			v.Set(reflect.Zero(rt))
			return nil
		case tString, tBytes:
			n, err := d.readUvarint()
			if err == nil {
				err = d.claim(n, MaxStringLen, "string length")
			}
			if err != nil {
				return err
			}
			b := make([]byte, n)
			if err := d.readFull(b); err != nil {
				return err
			}
			v.SetBytes(b)
			return nil
		case tSlice:
			// A byte slice written element-wise by another encoder.
			return decodeSliceElems(d, v, rt, elem)
		default:
			return d.tolerant(v, tag, self)
		}
	}
	return self
}

func decodeSliceElems(d *decoder, v reflect.Value, rt reflect.Type, elem decFn) error {
	n, err := d.readUvarint()
	if err == nil {
		err = d.claim(n, MaxElems, "slice length")
	}
	if err == nil {
		err = d.enter()
	}
	if err != nil {
		return err
	}
	s := reflect.MakeSlice(rt, int(n), int(n))
	for i := 0; i < int(n); i++ {
		tag, err := d.readByte()
		if err != nil {
			return err
		}
		if err := elem(d, s.Index(i), tag); err != nil {
			return err
		}
	}
	d.depth--
	v.Set(s)
	return nil
}

func buildSliceDecoder(rt reflect.Type) decFn {
	elem := decoderOf(rt.Elem())
	var self decFn
	self = func(d *decoder, v reflect.Value, tag byte) error {
		switch tag {
		case tNil:
			v.Set(reflect.Zero(rt))
			return nil
		case tSlice:
			return decodeSliceElems(d, v, rt, elem)
		default:
			return d.tolerant(v, tag, self)
		}
	}
	return self
}

func buildArrayDecoder(rt reflect.Type) decFn {
	elem := decoderOf(rt.Elem())
	n := rt.Len()
	var self decFn
	self = func(d *decoder, v reflect.Value, tag byte) error {
		if tag != tArray {
			return d.tolerant(v, tag, self)
		}
		sn, err := d.readUvarint()
		if err != nil {
			return err
		}
		if int(sn) != n {
			return errf("array length mismatch: stream %d, target %v", sn, rt)
		}
		if err := d.enter(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			tag2, err := d.readByte()
			if err != nil {
				return err
			}
			if err := elem(d, v.Index(i), tag2); err != nil {
				return err
			}
		}
		d.depth--
		return nil
	}
	return self
}

func buildMapDecoder(rt reflect.Type) decFn {
	keyFn := decoderOf(rt.Key())
	valFn := decoderOf(rt.Elem())
	kt, vt := rt.Key(), rt.Elem()
	var self decFn
	self = func(d *decoder, v reflect.Value, tag byte) error {
		switch tag {
		case tNil:
			v.Set(reflect.Zero(rt))
			return nil
		case tMap:
			id, err := d.readUvarint()
			if err != nil {
				return err
			}
			n, err := d.readUvarint()
			if err == nil {
				err = d.claim(n, MaxElems, "map length")
			}
			if err == nil {
				err = d.enter()
			}
			if err != nil {
				return err
			}
			m := reflect.MakeMapWithSize(rt, int(n))
			v.Set(m)
			d.setRef(id, m)
			for i := 0; i < int(n); i++ {
				// Fresh key/value buffers per entry: pointer-level
				// tolerance may register their addresses in the
				// identity table, so they must not be reused.
				k := reflect.New(kt).Elem()
				tag2, err := d.readByte()
				if err != nil {
					return err
				}
				if err := keyFn(d, k, tag2); err != nil {
					return err
				}
				val := reflect.New(vt).Elem()
				if tag2, err = d.readByte(); err != nil {
					return err
				}
				if err := valFn(d, val, tag2); err != nil {
					return err
				}
				m.SetMapIndex(k, val)
			}
			d.depth--
			return nil
		default:
			return d.tolerant(v, tag, self)
		}
	}
	return self
}

// buildPairSliceDecoder reads a tMap into a map-coded pair slice (MapPair),
// appending past a first allocation the claimed length cannot inflate.
func buildPairSliceDecoder(rt reflect.Type) decFn {
	inline, err := pairShape(rt.Elem())
	if err != nil {
		return func(*decoder, reflect.Value, byte) error { return err }
	}
	vt := rt.Elem().Field(1).Type
	ptrFn, elemFn, boxes := decoderOf(vt), decoderOf(vt.Elem()), boxPool(vt.Elem())
	value := func(d *decoder, pair reflect.Value, tag byte) error {
		if tag == tRef {
			return errf("map-coded %v holds a reference where a value belongs: a pair owns its value", rt)
		}
		if tag != tPtr {
			return ptrFn(d, pair.Field(1), tag)
		}
		_, err := d.readUvarint() // the value's id: the pair owns it, so it is never defined
		if err == nil {
			err = d.enter()
		}
		if err == nil {
			tag, err = d.readByte()
		}
		if err != nil {
			return err
		}
		// Into a box, which an inline pair may keep unboxed.
		box := boxes.Get()
		bv := reflect.ValueOf(box)
		bv.Elem().SetZero()
		err = elemFn(d, bv.Elem(), tag)
		d.depth--
		switch {
		case err != nil:
		case inline && pair.Addr().Interface().(MapPairInline).PickleUnbox(box):
			boxes.Put(box)
		default:
			pair.Field(1).Set(bv)
		}
		return err
	}
	var self decFn
	self = func(d *decoder, v reflect.Value, tag byte) error {
		if tag != tMap {
			return d.tolerant(v, tag, self) // tNil, or a tRef that finds no such object
		}
		if _, err := d.readUvarint(); err != nil { // the identity id: consumed, never defined
			return err
		}
		n, err := d.readUvarint()
		if err == nil && n > MaxElems {
			err = errf("map length %d exceeds limit %d", n, MaxElems)
		}
		if err == nil {
			err = d.enter()
		}
		if err != nil {
			return err
		}
		if v.SetZero(); n == 0 {
			v.Set(reflect.MakeSlice(rt, 0, 0)) // empty, not nil
		}
		v.Grow(int(min(n, 4096))) // in place: MakeSlice would box a slice header too
		sorted := true
		for i := 0; i < int(n); i++ {
			v.Grow(1) // a no-op while the first allocation lasts
			v.SetLen(i + 1)
			pair := v.Index(i)
			tag2, err := d.readByte()
			if err == nil {
				err = decString(d, pair.Field(0), tag2)
			}
			if err == nil {
				tag2, err = d.readByte()
			}
			if err == nil {
				err = value(d, pair, tag2)
			}
			if err != nil {
				return err
			}
			sorted = sorted && (i == 0 || v.Index(i-1).Field(0).String() < pair.Field(0).String())
		}
		d.depth--
		if sorted {
			return nil
		}
		pairs := v // captured here alone, so that v stays off the heap
		key := func(i int) string { return pairs.Index(i).Field(0).String() }
		sort.Slice(v.Interface(), func(i, j int) bool { return key(i) < key(j) })
		for i := 1; i < int(n); i++ {
			if key(i) == key(i-1) {
				return errf("duplicate key %q in map-coded %v", key(i), rt)
			}
		}
		return nil
	}
	return self
}

// structDecPlan is the compiled program for one struct type: the per-field
// programs, the pickled-name table used to match stream fields, and whether
// the type accepts binary-marshaled values.
type structDecPlan struct {
	rt        reflect.Type
	byName    map[string]int
	idx       []int // slot -> reflect field index
	fns       []decFn
	canBinary bool // *T implements encoding.BinaryUnmarshaler
}

var binaryUnmarshalerType = reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem()

func buildStructDecoder(rt reflect.Type) decFn {
	p := &structDecPlan{
		rt:        rt,
		byName:    make(map[string]int),
		canBinary: reflect.PointerTo(rt).Implements(binaryUnmarshalerType),
	}
	for _, f := range fieldsOf(rt) {
		p.byName[f.name] = len(p.idx)
		p.idx = append(p.idx, f.index)
		p.fns = append(p.fns, decoderOf(rt.Field(f.index).Type))
	}
	var self decFn
	self = func(d *decoder, v reflect.Value, tag byte) error {
		switch tag {
		case tStruct:
			st, err := d.readStructType()
			if err != nil {
				return err
			}
			if err := d.enter(); err != nil {
				return err
			}
			for _, slot := range st.matchFor(p) {
				tag2, err := d.readByte()
				if err != nil {
					return err
				}
				if slot >= 0 {
					err = p.fns[slot](d, v.Field(p.idx[slot]), tag2)
				} else {
					err = d.skipTagged(tag2)
				}
				if err != nil {
					return err
				}
			}
			d.depth--
			return nil
		case tBinary:
			data, err := d.readString(MaxStringLen)
			if err != nil {
				return err
			}
			if !v.CanAddr() {
				return mismatch(tag, v)
			}
			if !p.canBinary {
				return errf("stream has binary-marshaled value but %v has no UnmarshalBinary", rt)
			}
			bu := v.Addr().Interface().(encoding.BinaryUnmarshaler)
			if err := bu.UnmarshalBinary([]byte(data)); err != nil {
				return errf("UnmarshalBinary into %v: %v", rt, err)
			}
			return nil
		default:
			return d.tolerant(v, tag, self)
		}
	}
	return self
}

func buildPointerDecoder(rt reflect.Type) decFn {
	elem := decoderOf(rt.Elem())
	et := rt.Elem()
	var self decFn
	self = func(d *decoder, v reflect.Value, tag byte) error {
		switch tag {
		case tNil:
			v.Set(reflect.Zero(rt))
			return nil
		case tPtr:
			id, err := d.readUvarint()
			if err != nil {
				return err
			}
			np := reflect.New(et)
			v.Set(np)
			d.setRef(id, np)
			if err := d.enter(); err != nil {
				return err
			}
			tag2, err := d.readByte()
			if err != nil {
				return err
			}
			err = elem(d, np.Elem(), tag2)
			d.depth--
			return err
		case tRef:
			return d.decodeRef(v)
		default:
			// Pointer-level tolerance: a non-pointer stream value decodes
			// into a pointer target by allocating.
			np := reflect.New(et)
			v.Set(np)
			return elem(d, np.Elem(), tag)
		}
	}
	return self
}

func decIface(d *decoder, v reflect.Value, tag byte) error {
	switch tag {
	case tNil:
		v.Set(reflect.Zero(v.Type()))
		return nil
	case tIface, tIfaceID:
		cv, err := d.decodeConcrete(tag)
		if err != nil {
			return err
		}
		if rt := cv.Type(); !rt.AssignableTo(v.Type()) {
			n, _ := lookupName(rt)
			return errf("concrete type %q does not implement target interface %v", n, v.Type())
		}
		v.Set(cv)
		return nil
	default:
		return d.tolerant(v, tag, decIface)
	}
}

// ifaceName reads the registered name an interface value carries: inline
// after tIface, by table id after tIfaceID.
func (d *decoder) ifaceName(tag byte) ([]byte, error) {
	if tag == tIface {
		return d.readName(4096)
	}
	id, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if d.tab == nil || id >= uint64(len(d.tab.names)) {
		return nil, errf("interface type id %d is not in the stream's type table", id)
	}
	return d.tab.names[id], nil
}

// decodeConcrete decodes an interface value's concrete value, whose tIface or
// tIfaceID tag has been read, into a fresh value of its registered type.
func (d *decoder) decodeConcrete(tag byte) (reflect.Value, error) {
	name, err := d.ifaceName(tag)
	if err != nil {
		return reflect.Value{}, err
	}
	rt, ok := lookupTypeBytes(name)
	if !ok {
		return reflect.Value{}, errf("stream has unregistered concrete type %q; call pickle.Register", name)
	}
	if err := d.enter(); err != nil {
		return reflect.Value{}, err
	}
	cv := reflect.New(rt).Elem()
	tag2, err := d.readByte()
	if err == nil {
		err = decoderOf(rt)(d, cv, tag2)
	}
	d.depth--
	return cv, err
}

func mismatch(tag byte, v reflect.Value) error {
	return errf("stream has %s but target is %v", tagName(tag), v.Type())
}

// readStructType reads a struct type id and, on first occurrence, its inline
// definition.
func (d *decoder) readStructType() (*streamType, error) {
	id, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if d.tab != nil {
		// A table-relative stream defines nothing inline.
		if id >= uint64(len(d.tab.structs)) {
			return nil, errf("struct type id %d is not in the stream's type table (%d types)", id, len(d.tab.structs))
		}
		return d.tab.structs[id], nil
	}
	switch {
	case id < uint64(len(d.types)):
		return d.types[id], nil
	case id == uint64(len(d.types)):
		st, err := d.readStructTypeDef()
		if err != nil {
			return nil, err
		}
		d.types = append(d.types, st)
		return st, nil
	default:
		return nil, errf("struct type id %d out of order (have %d)", id, len(d.types))
	}
}

func (d *decoder) readStructTypeDef() (*streamType, error) {
	// Scan the definition first so an already-interned type is found
	// without allocating.
	start := d.pos
	if err := d.skipStructTypeDef(); err != nil {
		return nil, err
	}
	raw := d.data[start:d.pos]
	typeIntern.RLock()
	st := typeIntern.m[string(raw)]
	typeIntern.RUnlock()
	if st != nil {
		return st, nil
	}
	d.pos = start
	name, err := d.readString(4096)
	if err != nil {
		return nil, err
	}
	nf, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if nf > 1<<16 {
		return nil, errf("struct %s claims %d fields", name, nf)
	}
	fields := make([]string, nf)
	for i := range fields {
		fields[i], err = d.readString(4096)
		if err != nil {
			return nil, err
		}
	}
	st = &streamType{name: name, fields: fields}
	typeIntern.Lock()
	if prev := typeIntern.m[string(raw)]; prev != nil {
		st = prev
	} else {
		if typeIntern.m == nil {
			typeIntern.m = make(map[string]*streamType)
		}
		typeIntern.m[string(raw)] = st
	}
	typeIntern.Unlock()
	return st, nil
}

// skipStructTypeDef advances past an inline struct definition, validating
// the same limits readStructTypeDef enforces.
func (d *decoder) skipStructTypeDef() error {
	if _, err := d.readName(4096); err != nil {
		return err
	}
	nf, err := d.readUvarint()
	if err != nil {
		return err
	}
	if nf > 1<<16 {
		return errf("struct claims %d fields", nf)
	}
	for i := uint64(0); i < nf; i++ {
		if _, err := d.readName(4096); err != nil {
			return err
		}
	}
	return nil
}

func lookupTypeBytes(name []byte) (reflect.Type, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := nameToType[string(name)]
	return t, ok
}
