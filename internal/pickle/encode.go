package pickle

import (
	"encoding"
	"encoding/binary"
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
// which appends bytes to one buffer. Marshal and AppendMarshal run on pooled
// encoders, so pickling a registered update in the store's commit path costs
// near-zero allocations, and a checkpoint image pickled into a buffer with
// room costs none.

// An encoder pickles one value by appending it to buf: the caller's slice
// (AppendMarshal) or the encoder's own pooled scratch (Marshal).
type encoder struct {
	tab   *Table // when set, the stream is pickled against it
	buf   []byte // the value is appended here
	types map[reflect.Type]uint64
	err   error // first error; sticky

	// Per-value state: the identity table for shared pointers and
	// maps, and the recursion depth.
	refs    map[uintptr]uint64
	nextRef uint64
	depth   int
}

// Encode appends the pickled stream of v — its header, then the value — to
// e.buf. v may be any value built from bools, integers, floats, complex
// numbers, strings, slices, arrays, maps, structs (exported fields only),
// pointers and registered interface values.
func (e *encoder) Encode(v any) error {
	if e.tab != nil {
		e.buf = binary.LittleEndian.AppendUint16(append(e.buf, tableMagic), e.tab.fp)
	} else {
		e.buf = append(e.buf, magic)
	}
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		e.buf = append(e.buf, tNil)
	} else {
		encoderOf(rv.Type())(e, rv)
	}
	return e.err
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// enter counts one level of value nesting, failing the encode when the
// value recurses past MaxDepth: a cycle through map-coded pairs, which keep
// no identity, or unbounded recursion that never passes through a pointer or
// map, whose identity table would have caught the cycle.
func (e *encoder) enter() bool {
	e.depth++
	if e.depth > MaxDepth {
		e.fail(errf("value exceeds maximum depth %d (a cycle through map-coded pairs, or unbounded recursion without pointers?)", MaxDepth))
		return false
	}
	return true
}

// ref assigns the next identity-table id to the pointer or map at p.
func (e *encoder) ref(p uintptr) uint64 {
	if e.refs == nil {
		e.refs = make(map[uintptr]uint64)
	}
	id := e.nextRef
	e.nextRef++
	e.refs[p] = id
	return id
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
type encFn func(e *encoder, v reflect.Value)

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
	stub := encFn(func(e *encoder, v reflect.Value) {
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
		return func(e *encoder, v reflect.Value) {
			e.fail(errf("cannot pickle value of kind %v (%v)", rt.Kind(), rt))
		}
	}
}

func encBool(e *encoder, v reflect.Value) {
	if v.Bool() {
		e.buf = append(e.buf, tTrue)
	} else {
		e.buf = append(e.buf, tFalse)
	}
}

func encInt(e *encoder, v reflect.Value) {
	e.buf = append(e.buf, tInt)
	e.buf = binary.AppendVarint(e.buf, v.Int())
}

func encUint(e *encoder, v reflect.Value) {
	e.buf = append(e.buf, tUint)
	e.buf = binary.AppendUvarint(e.buf, v.Uint())
}

func encFloat32(e *encoder, v reflect.Value) {
	e.buf = append(e.buf, tFloat32)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(float32(v.Float())))
}

func encFloat64(e *encoder, v reflect.Value) {
	e.buf = append(e.buf, tFloat64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
}

func encComplex(e *encoder, v reflect.Value) {
	c := v.Complex()
	e.buf = append(e.buf, tComplex)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(real(c)))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(imag(c)))
}

func encString(e *encoder, v reflect.Value) {
	e.buf = append(e.buf, tString)
	e.buf = appendLenPrefixed(e.buf, v.String())
}

func encBytes(e *encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, tNil)
		return
	}
	b := v.Bytes()
	e.buf = append(e.buf, tBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func encBinaryMarshaler(e *encoder, v reflect.Value) {
	bm := v.Interface().(encoding.BinaryMarshaler)
	data, err := bm.MarshalBinary()
	if err != nil {
		e.fail(errf("MarshalBinary of %v: %v", v.Type(), err))
		return
	}
	e.buf = append(e.buf, tBinary)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(data)))
	e.buf = append(e.buf, data...)
}

func buildSliceEncoder(rt reflect.Type) encFn {
	if rt.Elem().Kind() == reflect.Uint8 {
		return encBytes
	}
	if rt.Elem().Implements(mapPairType) {
		return buildPairSliceEncoder(rt)
	}
	elem := encoderOf(rt.Elem())
	return func(e *encoder, v reflect.Value) {
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
		}
		e.depth--
	}
}

func buildArrayEncoder(rt reflect.Type) encFn {
	elem := encoderOf(rt.Elem())
	n := rt.Len()
	return func(e *encoder, v reflect.Value) {
		if !e.enter() {
			return
		}
		e.buf = append(e.buf, tArray)
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		for i := 0; i < n && e.err == nil; i++ {
			elem(e, v.Index(i))
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
	return func(e *encoder, v reflect.Value) {
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
	return func(e *encoder, v reflect.Value) {
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
		}
		e.depth--
	}
}

// MapPair marks the element type of a map-coded pair slice: a struct of
// exactly two exported fields, a string key and a pointer value, followed by
// none but MapPairInline's unexported ones. A slice of such elements pickles
// as the string-keyed map it stands for — tNil when nil, else a tMap taking
// the one identity id the map would have taken, pairs in slice order — and
// decodes from one by appending: no map is built, no key hashed. The writer
// keeps the slice in ascending key order, as a map is written; the reader
// sorts a stream that is not, and answers a duplicate key, or a tRef to such
// a map, with an *Error.
//
// A pair owns its value: no other pointer, in the slice or outside it, may
// share it. The value pickles as an unshared pointer, taking the next
// identity id, and neither side enters it in an identity table; so a value
// reached twice pickles twice, a cycle through pairs fails at MaxDepth, and a
// tRef where a pair's value belongs is an *Error.
type MapPair interface{ PickleMapPair() }

var mapPairType = reflect.TypeOf((*MapPair)(nil)).Elem()

// MapPairSource is implemented by a pointer to a struct that may keep the
// pairs of its map-coded pair slice field elsewhere — in blocks, say —
// leaving the field empty but not nil (nil is no map). For such a field a
// non-nil []P from PicklePairs pickles in its place: the one tMap the pairs
// spell, the bytes the field would be if it held them. Decoding fills the
// field.
type MapPairSource interface{ PicklePairs() any }

var mapPairSourceType = reflect.TypeOf((*MapPairSource)(nil)).Elem()

// pairSource returns what v, a MapPairSource struct, pickles in place of
// its pair slice field, or nil.
func pairSource(v reflect.Value) any {
	if !v.CanAddr() { // pickled by value; PicklePairs wants a pointer
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		v = c
	}
	return v.Addr().Interface().(MapPairSource).PicklePairs()
}

// MapPairInline is MapPair's one optional hook, implemented by a pointer to a
// pair whose value may be held unboxed: the pointed-to value kept in
// unexported fields of the pair's own, past the two, and the value field nil.
// Such a pair pickles as if the field pointed to that value; and each value
// decoded into a pair is offered to it, to keep unboxed.
type MapPairInline interface {
	// PickleBox sets *box, box a pointer of the value field's type, to the
	// value the pair holds unboxed, and reports whether it holds one.
	PickleBox(box any) bool
	// PickleUnbox offers the pair the value just decoded into *box and
	// reports whether it took the value unboxed; box is the caller's again.
	PickleUnbox(box any) bool
}

var mapPairInlineType = reflect.TypeOf((*MapPairInline)(nil)).Elem()

// pairShape checks et, which implements MapPair, for the shape it promises,
// and reports whether *et implements MapPairInline.
func pairShape(et reflect.Type) (inline bool, err error) {
	ok := et.Kind() == reflect.Struct && et.NumField() >= 2 && et.Field(0).Type.Kind() == reflect.String &&
		et.Field(1).Type.Kind() == reflect.Pointer && et.Field(0).PkgPath == "" && et.Field(1).PkgPath == ""
	inline = ok && reflect.PointerTo(et).Implements(mapPairInlineType)
	for i := 2; ok && i < et.NumField(); i++ {
		ok = inline && et.Field(i).PkgPath != ""
	}
	if !ok {
		return false, errf("%v implements MapPair but is not a struct of an exported string key and an exported pointer value", et)
	}
	return inline, nil
}

// boxPool returns a pool of pointers to fresh values of et: the boxes an
// unboxed pair value goes through on its way to and from the wire.
func boxPool(et reflect.Type) *sync.Pool {
	return &sync.Pool{New: func() any { return reflect.New(et).Interface() }}
}

func buildPairSliceEncoder(rt reflect.Type) encFn {
	inline, err := pairShape(rt.Elem())
	if err != nil {
		return func(e *encoder, v reflect.Value) { e.fail(err) }
	}
	et := rt.Elem().Field(1).Type.Elem()
	elemFn, boxes := encoderOf(et), boxPool(et)
	return func(e *encoder, v reflect.Value) {
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
		var box any // this slice's, for each unboxed value in turn
		if inline {
			box = boxes.Get()
		}
		for i := 0; i < n && e.err == nil; i++ {
			pair := v.Index(i)
			e.buf = append(e.buf, tString)
			e.buf = appendLenPrefixed(e.buf, pair.Field(0).String())
			f := pair.Field(1)
			if inline && f.IsNil() && pair.Addr().Interface().(MapPairInline).PickleBox(box) {
				f = reflect.ValueOf(box)
			}
			if f.IsNil() {
				e.buf = append(e.buf, tNil)
			} else if e.enter() { // as the pointer encoder writes an unshared pointer
				e.buf = append(e.buf, tPtr)
				e.buf = binary.AppendUvarint(e.buf, e.nextRef) // the pair's own, so not entered in refs
				e.nextRef++
				elemFn(e, f.Elem())
				e.depth--
			}
		}
		if inline {
			boxes.Put(box)
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
// pre-encoded so its first use per encoder is a single append.
type structEncPlan struct {
	rt      reflect.Type
	typedef []byte // name, field count, field names — wire-ready
	idx     []int  // reflect field indices, parallel to fns
	fns     []encFn
	pairs   int // a MapPairSource's pair slice field's slot, else -1
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
	p := &structEncPlan{rt: rt, typedef: typedefOf(rt), pairs: -1}
	for i, f := range fieldsOf(rt) {
		ft := rt.Field(f.index).Type
		p.idx = append(p.idx, f.index)
		p.fns = append(p.fns, encoderOf(ft))
		if ft.Kind() == reflect.Slice && ft.Elem().Implements(mapPairType) && reflect.PointerTo(rt).Implements(mapPairSourceType) {
			p.pairs = i
		}
	}
	return p.encode
}

func (p *structEncPlan) encode(e *encoder, v reflect.Value) {
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
		// Inline definition, emitted exactly once per encoder at the
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
		f := v.Field(p.idx[i])
		if i == p.pairs && f.Len() == 0 && !f.IsNil() {
			if pairs := pairSource(v); pairs != nil {
				f = reflect.ValueOf(pairs)
			}
		}
		fn(e, f)
	}
	e.depth--
}

func buildPointerEncoder(rt reflect.Type) encFn {
	elem := encoderOf(rt.Elem())
	return func(e *encoder, v reflect.Value) {
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

func encInterface(e *encoder, v reflect.Value) {
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
