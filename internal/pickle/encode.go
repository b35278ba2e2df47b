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

// The encoder is organized around compiled codec plans: on the first
// encounter of a Go type, a per-type encode program — a tree of small
// closures with every reflect.Kind decision, field table and type
// definition resolved ahead of time — is compiled and cached in a
// package-wide sync.Map. Steady-state encoding therefore walks no
// reflection trees: each value dispatches straight into its type's program,
// which appends bytes to a grow-only buffer. Marshal and AppendMarshal run
// on pooled Encoders, so pickling a registered update in the store's commit
// path costs near-zero allocations.

// An Encoder pickles values onto an output stream. Struct type definitions
// are emitted once per Encoder; pointer/map identity is tracked per Encode
// call, so each Encode produces an independently decodable value graph.
type Encoder struct {
	w        io.Writer
	tab      *Table // when set, the stream is pickled against it
	buf      []byte // output accumulates here; flushed to w per Encode
	types    map[reflect.Type]uint64
	wroteHdr bool
	err      error // first error; sticky

	// Per-Encode-call state: the identity table for shared pointers and
	// maps, and the recursion depth.
	refs    map[uintptr]uint64
	nextRef uint64
	depth   int
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode pickles v, which may be any value built from bools, integers,
// floats, complex numbers, strings, slices, arrays, maps, structs (exported
// fields only), pointers and registered interface values.
func (e *Encoder) Encode(v any) error {
	if e.err != nil {
		return e.err
	}
	if !e.wroteHdr {
		if e.tab != nil {
			e.buf = binary.LittleEndian.AppendUint16(append(e.buf, tableMagic), e.tab.fp)
		} else {
			e.buf = append(e.buf, magic)
		}
		e.wroteHdr = true
	}
	e.refs = reuseMap(e.refs)
	e.nextRef = 0
	e.depth = 0
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		e.buf = append(e.buf, tNil)
	} else {
		encoderOf(rv.Type())(e, rv)
	}
	e.flush()
	return e.err
}

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// enter counts one level of value nesting, failing the encode when the
// value recurses past MaxDepth (a structure with unbounded recursion that
// never passes through a pointer or map, whose identity table would have
// caught the cycle).
func (e *Encoder) enter() bool {
	e.depth++
	if e.depth > MaxDepth {
		e.fail(errf("value exceeds maximum depth %d (unbounded recursion without pointers?)", MaxDepth))
		return false
	}
	return true
}

// ref assigns the next identity-table id to the pointer or map at p.
func (e *Encoder) ref(p uintptr) uint64 {
	if e.refs == nil {
		e.refs = make(map[uintptr]uint64)
	}
	id := e.nextRef
	e.nextRef++
	e.refs[p] = id
	return id
}

// flush drains the accumulated buffer to the underlying writer. A
// buffer-only encoder (Marshal, AppendMarshal) has no writer and never
// flushes.
func (e *Encoder) flush() {
	if e.w == nil || len(e.buf) == 0 {
		return
	}
	if e.err == nil {
		if _, err := e.w.Write(e.buf); err != nil {
			e.err = err
		}
	}
	e.buf = e.buf[:0]
}

// maybeFlush bounds the buffer while streaming a large value (a whole
// database root during a checkpoint) through an io.Writer.
func (e *Encoder) maybeFlush() {
	if e.w != nil && len(e.buf) >= 1<<15 {
		e.flush()
	}
}

func appendLenPrefixed(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

var binaryMarshalerType = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()

// binaryMarshalCache caches the per-type answer of usesBinaryMarshaling.
var binaryMarshalCache sync.Map // reflect.Type -> bool

// usesBinaryMarshaling reports whether rt opts out of structural pickling
// by implementing both encoding.BinaryMarshaler and BinaryUnmarshaler
// (checked on *T for the unmarshal side), as time.Time does.
func usesBinaryMarshaling(rt reflect.Type) bool {
	if v, ok := binaryMarshalCache.Load(rt); ok {
		return v.(bool)
	}
	uses := false
	if rt.Kind() == reflect.Struct && rt.Implements(binaryMarshalerType) {
		_, uses = reflect.PointerTo(rt).MethodByName("UnmarshalBinary")
	}
	binaryMarshalCache.Store(rt, uses)
	return uses
}

// An encFn is one compiled encode program: it appends the pickled form of a
// value of one fixed static type to e.buf.
type encFn func(e *Encoder, v reflect.Value)

// encPlans caches the compiled per-type encode programs.
var encPlans sync.Map // reflect.Type -> encFn

// encoderOf returns rt's compiled encode program, compiling it on first
// use.
func encoderOf(rt reflect.Type) encFn {
	if f, ok := encPlans.Load(rt); ok {
		return f.(encFn)
	}
	// Publish a forwarding stub before compiling so that compiling a type
	// that (indirectly) contains itself terminates: the inner reference
	// resolves to the stub, which waits for the real program.
	var (
		wg sync.WaitGroup
		fn encFn
	)
	wg.Add(1)
	stub := encFn(func(e *Encoder, v reflect.Value) {
		wg.Wait()
		fn(e, v)
	})
	if actual, loaded := encPlans.LoadOrStore(rt, stub); loaded {
		return actual.(encFn)
	}
	fn = buildEncoder(rt)
	wg.Done()
	encPlans.Store(rt, fn)
	codec.encPlanCompiles.Add(1)
	return fn
}

// buildEncoder compiles the encode program for rt, resolving every kind
// decision now so the returned program makes none per value.
func buildEncoder(rt reflect.Type) encFn {
	if rt.Kind() == reflect.Struct && usesBinaryMarshaling(rt) {
		return encBinaryMarshaler
	}
	switch rt.Kind() {
	case reflect.Bool:
		return encBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return encInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return encUint
	case reflect.Float32:
		return encFloat32
	case reflect.Float64:
		return encFloat64
	case reflect.Complex64, reflect.Complex128:
		return encComplex
	case reflect.String:
		return encString
	case reflect.Slice:
		return buildSliceEncoder(rt)
	case reflect.Array:
		return buildArrayEncoder(rt)
	case reflect.Map:
		return buildMapEncoder(rt)
	case reflect.Struct:
		return buildStructEncoder(rt)
	case reflect.Pointer:
		return buildPointerEncoder(rt)
	case reflect.Interface:
		return encInterface
	default:
		return func(e *Encoder, v reflect.Value) {
			e.fail(errf("cannot pickle value of kind %v (%v)", rt.Kind(), rt))
		}
	}
}

func encBool(e *Encoder, v reflect.Value) {
	if v.Bool() {
		e.buf = append(e.buf, tTrue)
	} else {
		e.buf = append(e.buf, tFalse)
	}
}

func encInt(e *Encoder, v reflect.Value) {
	e.buf = append(e.buf, tInt)
	e.buf = binary.AppendVarint(e.buf, v.Int())
}

func encUint(e *Encoder, v reflect.Value) {
	e.buf = append(e.buf, tUint)
	e.buf = binary.AppendUvarint(e.buf, v.Uint())
}

func encFloat32(e *Encoder, v reflect.Value) {
	e.buf = append(e.buf, tFloat32)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(float32(v.Float())))
}

func encFloat64(e *Encoder, v reflect.Value) {
	e.buf = append(e.buf, tFloat64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
}

func encComplex(e *Encoder, v reflect.Value) {
	c := v.Complex()
	e.buf = append(e.buf, tComplex)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(real(c)))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(imag(c)))
}

func encString(e *Encoder, v reflect.Value) {
	e.buf = append(e.buf, tString)
	e.buf = appendLenPrefixed(e.buf, v.String())
	e.maybeFlush()
}

func encBytes(e *Encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, tNil)
		return
	}
	b := v.Bytes()
	e.buf = append(e.buf, tBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
	e.maybeFlush()
}

func encBinaryMarshaler(e *Encoder, v reflect.Value) {
	bm := v.Interface().(encoding.BinaryMarshaler)
	data, err := bm.MarshalBinary()
	if err != nil {
		e.fail(errf("MarshalBinary of %v: %v", v.Type(), err))
		return
	}
	e.buf = append(e.buf, tBinary)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(data)))
	e.buf = append(e.buf, data...)
	e.maybeFlush()
}

func buildSliceEncoder(rt reflect.Type) encFn {
	if rt.Elem().Kind() == reflect.Uint8 {
		return encBytes
	}
	if rt.Elem().Implements(mapPairType) {
		return buildPairSliceEncoder(rt)
	}
	elem := encoderOf(rt.Elem())
	return func(e *Encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, tNil)
			return
		}
		if !e.enter() {
			return
		}
		n := v.Len()
		e.buf = append(e.buf, tSlice)
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		for i := 0; i < n && e.err == nil; i++ {
			elem(e, v.Index(i))
			e.maybeFlush()
		}
		e.depth--
	}
}

func buildArrayEncoder(rt reflect.Type) encFn {
	elem := encoderOf(rt.Elem())
	n := rt.Len()
	return func(e *Encoder, v reflect.Value) {
		if !e.enter() {
			return
		}
		e.buf = append(e.buf, tArray)
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		for i := 0; i < n && e.err == nil; i++ {
			elem(e, v.Index(i))
			e.maybeFlush()
		}
		e.depth--
	}
}

func buildMapEncoder(rt reflect.Type) encFn {
	if rt.Key().Kind() == reflect.String {
		return buildStringMapEncoder(rt)
	}
	keyFn := encoderOf(rt.Key())
	valFn := encoderOf(rt.Elem())
	cmp := keyComparer(rt.Key())
	return func(e *Encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, tNil)
			return
		}
		if id, ok := e.refs[v.Pointer()]; ok {
			e.buf = append(e.buf, tRef)
			e.buf = binary.AppendUvarint(e.buf, id)
			return
		}
		if !e.enter() {
			return
		}
		id := e.ref(v.Pointer())
		e.buf = append(e.buf, tMap)
		e.buf = binary.AppendUvarint(e.buf, id)
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len()))
		// Deterministic output for maps whose key type has a compiled
		// comparer: sort the keys so the same logical map always pickles
		// to the same bytes, making checkpoints reproducible and
		// diffable. Maps with keys the comparer cannot order (pointers,
		// interfaces) are emitted in iteration order; decode is
		// unaffected.
		keys := v.MapKeys()
		if cmp != nil {
			sort.Slice(keys, func(i, j int) bool { return cmp(keys[i], keys[j]) < 0 })
		}
		for _, k := range keys {
			if e.err != nil {
				break
			}
			keyFn(e, k)
			valFn(e, v.MapIndex(k))
			e.maybeFlush()
		}
		e.depth--
	}
}

// buildStringMapEncoder is the compiled program for the dominant map shape,
// string-keyed maps (directories, tables): keys are extracted once through a
// reused iteration buffer and sorted as a plain []string, avoiding the
// reflect.Value swap cost that dominates sorting large maps generically.
func buildStringMapEncoder(rt reflect.Type) encFn {
	valFn := encoderOf(rt.Elem())
	kt := rt.Key()
	return func(e *Encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, tNil)
			return
		}
		if id, ok := e.refs[v.Pointer()]; ok {
			e.buf = append(e.buf, tRef)
			e.buf = binary.AppendUvarint(e.buf, id)
			return
		}
		if !e.enter() {
			return
		}
		id := e.ref(v.Pointer())
		n := v.Len()
		e.buf = append(e.buf, tMap)
		e.buf = binary.AppendUvarint(e.buf, id)
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		ks := make([]string, 0, n)
		kbuf := reflect.New(kt).Elem()
		for iter := v.MapRange(); iter.Next(); {
			kbuf.SetIterKey(iter)
			ks = append(ks, kbuf.String())
		}
		sort.Strings(ks)
		for _, k := range ks {
			if e.err != nil {
				break
			}
			e.buf = append(e.buf, tString)
			e.buf = appendLenPrefixed(e.buf, k)
			kbuf.SetString(k)
			valFn(e, v.MapIndex(kbuf))
			e.maybeFlush()
		}
		e.depth--
	}
}

// MapPair marks the element type of a map-coded pair slice: a struct of
// exactly two exported fields, the first a string key. A slice of such
// elements pickles as the string-keyed map it stands for — tNil when nil,
// else a tMap taking the one identity id the map would have taken, pairs in
// slice order — and decodes from one by appending: no map is built, no key
// hashed. The writer keeps the slice in ascending key order, as a map is
// written; the reader sorts a stream that is not, and answers a duplicate
// key, or a tRef to such a map, with an *Error.
type MapPair interface{ PickleMapPair() }

var mapPairType = reflect.TypeOf((*MapPair)(nil)).Elem()

// pairShape checks et, which implements MapPair, for the shape it promises.
func pairShape(et reflect.Type) error {
	if et.Kind() != reflect.Struct || et.NumField() != 2 || et.Field(0).Type.Kind() != reflect.String ||
		et.Field(0).PkgPath != "" || et.Field(1).PkgPath != "" {
		return errf("%v implements MapPair but is not a struct of an exported string key and an exported value", et)
	}
	return nil
}

func buildPairSliceEncoder(rt reflect.Type) encFn {
	if err := pairShape(rt.Elem()); err != nil {
		return func(e *Encoder, v reflect.Value) { e.fail(err) }
	}
	valFn := encoderOf(rt.Elem().Field(1).Type)
	return func(e *Encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, tNil)
			return
		}
		if !e.enter() {
			return
		}
		n := v.Len()
		e.buf = append(e.buf, tMap)
		e.buf = binary.AppendUvarint(e.buf, e.nextRef) // never shared, so not entered in refs
		e.nextRef++
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		for i := 0; i < n && e.err == nil; i++ {
			pair := v.Index(i)
			e.buf = append(e.buf, tString)
			e.buf = appendLenPrefixed(e.buf, pair.Field(0).String())
			valFn(e, pair.Field(1))
			e.maybeFlush()
		}
		e.depth--
	}
}

// structFields caches, per struct type, the exported fields we pickle.
var structFields sync.Map // reflect.Type -> []fieldInfo

type fieldInfo struct {
	name  string
	index int
}

func fieldsOf(rt reflect.Type) []fieldInfo {
	if f, ok := structFields.Load(rt); ok {
		return f.([]fieldInfo)
	}
	var fields []fieldInfo
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.PkgPath != "" { // unexported
			continue
		}
		name := f.Name
		if tag, ok := f.Tag.Lookup("pickle"); ok {
			if tag == "-" {
				continue
			}
			name = tag
		}
		fields = append(fields, fieldInfo{name: name, index: i})
	}
	structFields.Store(rt, fields)
	return fields
}

// structEncPlan is the compiled program for one struct type: the field
// programs in pickle order and the type's inline stream definition,
// pre-encoded so its first use per Encoder is a single append.
type structEncPlan struct {
	rt      reflect.Type
	typedef []byte // name, field count, field names — wire-ready
	idx     []int  // reflect field indices, parallel to fns
	fns     []encFn
}

// typedefOf is rt's wire-form definition: name, field count, field names.
func typedefOf(rt reflect.Type) []byte {
	fields := fieldsOf(rt)
	def := appendLenPrefixed(nil, rt.String())
	def = binary.AppendUvarint(def, uint64(len(fields)))
	for _, f := range fields {
		def = appendLenPrefixed(def, f.name)
	}
	return def
}

func buildStructEncoder(rt reflect.Type) encFn {
	p := &structEncPlan{rt: rt, typedef: typedefOf(rt)}
	for _, f := range fieldsOf(rt) {
		p.idx = append(p.idx, f.index)
		p.fns = append(p.fns, encoderOf(rt.Field(f.index).Type))
	}
	return p.encode
}

func (p *structEncPlan) encode(e *Encoder, v reflect.Value) {
	if !e.enter() {
		return
	}
	e.buf = append(e.buf, tStruct)
	if e.tab != nil {
		id, ok := e.tab.structIDs[string(p.typedef)]
		if !ok {
			e.fail(errNotInTable)
			return
		}
		e.buf = binary.AppendUvarint(e.buf, id)
	} else if id, known := e.types[p.rt]; known {
		e.buf = binary.AppendUvarint(e.buf, id)
	} else {
		// Inline definition, emitted exactly once per Encoder at the
		// first use of the type.
		if e.types == nil {
			e.types = make(map[reflect.Type]uint64)
		}
		id = uint64(len(e.types))
		e.types[p.rt] = id
		e.buf = binary.AppendUvarint(e.buf, id)
		e.buf = append(e.buf, p.typedef...)
	}
	for i, fn := range p.fns {
		if e.err != nil {
			break
		}
		fn(e, v.Field(p.idx[i]))
		e.maybeFlush()
	}
	e.depth--
}

func buildPointerEncoder(rt reflect.Type) encFn {
	elem := encoderOf(rt.Elem())
	return func(e *Encoder, v reflect.Value) {
		if v.IsNil() {
			e.buf = append(e.buf, tNil)
			return
		}
		if id, ok := e.refs[v.Pointer()]; ok {
			e.buf = append(e.buf, tRef)
			e.buf = binary.AppendUvarint(e.buf, id)
			return
		}
		if !e.enter() {
			return
		}
		id := e.ref(v.Pointer())
		e.buf = append(e.buf, tPtr)
		e.buf = binary.AppendUvarint(e.buf, id)
		elem(e, v.Elem())
		e.depth--
	}
}

func encInterface(e *Encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, tNil)
		return
	}
	elem := v.Elem()
	name, ok := lookupName(elem.Type())
	if !ok {
		e.fail(errf("interface holds unregistered concrete type %v; call pickle.Register", elem.Type()))
		return
	}
	if !e.enter() {
		return
	}
	if e.tab == nil {
		e.buf = append(e.buf, tIface)
		e.buf = appendLenPrefixed(e.buf, name)
	} else if id, ok := e.tab.nameIDs[name]; ok {
		e.buf = append(e.buf, tIfaceID)
		e.buf = binary.AppendUvarint(e.buf, id)
	} else {
		e.fail(errNotInTable)
		return
	}
	encoderOf(elem.Type())(e, elem)
	e.depth--
}
