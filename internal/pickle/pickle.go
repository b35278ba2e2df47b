// Package pickle converts between strongly typed in-memory data structures
// and flat byte representations suitable for long-term storage on disk, in
// the manner of the "pickles" package of Birrell, Jones and Wobber (SOSP
// 1987): "PickleWrite takes a pointer to a strongly typed data structure and
// delivers buffers of bits for writing to the disk. Conversely PickleRead
// reads buffers of bits from the disk and delivers a copy of the original
// data structure."
//
// The encoding is self-describing: struct types carry their name and field
// names in the stream, so a reader whose struct type has gained or lost
// fields still decodes the fields the two sides share (unknown fields are
// skipped). Pointer and map identity is preserved — a structure in which the
// same object is reachable along several paths, including cyclic structures,
// round-trips to an isomorphic structure, exactly as the paper's pickles
// "identify the occurrences of addresses in the structure" and rebuild them
// on read.
//
// A string-keyed table kept as a sorted slice of pairs can still pickle as
// the map it stands for, and load without building one: see MapPair.
//
// Interface-typed fields require the concrete types that may appear in them
// to be registered with Register or RegisterName, mirroring the run-time
// typing tables that drove the original implementation.
//
// Struct types that implement both encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler (notably time.Time) are pickled through those
// methods instead of structurally, so types with unexported invariants
// round-trip correctly.
//
// A Table lifts the type descriptions out of a family of streams: it names
// the registered types and struct definitions once, and a stream pickled
// against it refers to them by id and carries data only. Readers tell the two
// forms apart by the first byte.
//
// The package is the foundation for both the redo log (each log entry is a
// pickled update record, pickled against the type table at the head of its
// log file) and checkpoints (a checkpoint is the pickled root of the entire
// database).
package pickle

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"sync"
)

// Stream limits. They bound what a corrupt or hostile stream can make the
// decoder allocate; they are far above anything the paper's ≤10 MB databases
// need.
const (
	// MaxStringLen bounds a single decoded string or []byte.
	MaxStringLen = 1 << 28 // 256 MB
	// MaxElems bounds a single decoded slice or map length.
	MaxElems = 1 << 26
	// MaxDepth bounds recursion while encoding or decoding.
	MaxDepth = 512
)

// Error is the kind of error returned for malformed streams or unsupported
// values.
type Error struct{ msg string }

func (e *Error) Error() string { return "pickle: " + e.msg }

func errf(format string, args ...any) error {
	return &Error{msg: fmt.Sprintf(format, args...)}
}

// The concrete-type registry used for interface-typed values.
var (
	regMu      sync.RWMutex
	nameToType = make(map[string]reflect.Type)
	typeToName = make(map[reflect.Type]string)
)

// Register records a concrete type, identified by the value's dynamic type,
// under its canonical name so that values of that type can be pickled when
// they appear in interface-typed positions. It is idempotent for the same
// (name, type) pair and panics on conflicting registrations, matching the
// behaviour downstream code expects from encoding/gob.
func Register(value any) {
	rt := reflect.TypeOf(value)
	name := canonicalName(rt)
	RegisterName(name, value)
}

// RegisterName is like Register but uses the supplied name.
func RegisterName(name string, value any) {
	if name == "" {
		panic("pickle: RegisterName with empty name")
	}
	rt := reflect.TypeOf(value)
	if rt == nil {
		panic("pickle: RegisterName with nil value")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := nameToType[name]; ok && prev != rt {
		panic(fmt.Sprintf("pickle: name %q registered for both %v and %v", name, prev, rt))
	}
	if prev, ok := typeToName[rt]; ok && prev != name {
		panic(fmt.Sprintf("pickle: type %v registered as both %q and %q", rt, prev, name))
	}
	nameToType[name] = rt
	typeToName[rt] = name
}

func lookupName(rt reflect.Type) (string, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	n, ok := typeToName[rt]
	return n, ok
}

func canonicalName(rt reflect.Type) string {
	star := ""
	for rt.Kind() == reflect.Pointer {
		star += "*"
		rt = rt.Elem()
	}
	if rt.Name() == "" {
		panic(fmt.Sprintf("pickle: cannot register unnamed type %v", rt))
	}
	if rt.PkgPath() == "" {
		return star + rt.Name()
	}
	return star + rt.PkgPath() + "." + rt.Name()
}

// Marshal and Unmarshal run on pooled codec state: the Encoder (with its
// grow-only output buffer and type table) and the Decoder are recycled
// across calls, and oversized buffers are dropped rather than pinned in the
// pool.
const maxPooledBuf = 1 << 20

// maxPooledRefs bounds the identity and type maps a coder keeps from one
// value to the next.
const maxPooledRefs = 1 << 12

// reuseMap readies an identity or type map for the next value: emptied, or
// dropped when the last value grew it past maxPooledRefs — clear costs
// O(capacity), so one large value (a snapshot install, a checkpoint image)
// would otherwise tax every small one after it.
func reuseMap[M ~map[K]V, K comparable, V any](m M) M {
	if len(m) > maxPooledRefs {
		return nil
	}
	if len(m) > 0 {
		clear(m)
	}
	return m
}

var encoderPool = sync.Pool{New: func() any {
	codec.encPoolMisses.Add(1)
	return new(Encoder)
}}

var decoderPool = sync.Pool{New: func() any {
	codec.decPoolMisses.Add(1)
	return new(Decoder)
}}

func getEncoder() *Encoder {
	codec.encPoolGets.Add(1)
	return encoderPool.Get().(*Encoder)
}

func putEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledBuf {
		return
	}
	e.w = nil
	e.tab = nil
	e.buf = e.buf[:0]
	e.wroteHdr = false
	e.err = nil
	e.types = reuseMap(e.types)
	e.refs = reuseMap(e.refs)
	e.nextRef = 0
	e.depth = 0
	encoderPool.Put(e)
}

// decode runs fn on a pooled Decoder reading data against t.
func (t *Table) decode(data []byte, fn func(*Decoder) (any, error)) (any, error) {
	codec.decPoolGets.Add(1)
	d := decoderPool.Get().(*Decoder)
	d.data, d.tab = data, t
	v, err := fn(d)
	putDecoder(d)
	return v, err
}

func putDecoder(d *Decoder) {
	d.data = nil
	d.tab = nil
	d.pos = 0
	d.types = d.types[:0]
	d.readHdr = false
	d.refs = reuseMap(d.refs)
	d.depth = 0
	decoderPool.Put(d)
}

// Marshal pickles v into a fresh byte slice. It is the paper's PickleWrite.
func Marshal(v any) ([]byte, error) {
	return AppendMarshal(nil, v)
}

// AppendMarshal pickles v and appends the result to dst, returning the
// extended slice. It is Marshal for callers that already own a buffer —
// the log append path — so steady-state pickling allocates nothing.
func AppendMarshal(dst []byte, v any) ([]byte, error) {
	return (*Table)(nil).AppendMarshal(dst, v)
}

// Unmarshal reads a pickled value from data into the variable pointed to by
// ptr. It is the paper's PickleRead. It decodes directly from data on
// pooled state, with no intermediate buffering. A stream pickled against a
// Table decodes here only when this process built that table; otherwise it
// needs Table.Unmarshal.
func Unmarshal(data []byte, ptr any) error {
	var t *Table
	if IsTableRelative(data) && len(data) >= 3 {
		if b, ok := built.Load(binary.LittleEndian.Uint16(data[1:])); ok {
			t = b.(*Table)
		}
	}
	return t.Unmarshal(data, ptr)
}

// Write pickles v onto w; it is a streaming PickleWrite, used for
// checkpoints, whose pickled form should not be materialised in one buffer.
func Write(w io.Writer, v any) error {
	return NewEncoder(w).Encode(v)
}

// Read reads one pickled value from r into the variable pointed to by ptr.
func Read(r io.Reader, ptr any) error {
	return NewDecoder(r).Decode(ptr)
}
