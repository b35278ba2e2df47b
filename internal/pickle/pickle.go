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
// The package is the foundation for both the redo log (each log entry is a
// pickled update record) and checkpoints (a checkpoint is the pickled root
// of the entire database).
package pickle

import (
	"fmt"
	"io"
	"reflect"
	"sort"
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

// RegisteredNames reports the names of all registered concrete types, sorted.
// It exists for diagnostic tools such as cmd/logdump.
func RegisteredNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(nameToType))
	for n := range nameToType {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupName(rt reflect.Type) (string, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	n, ok := typeToName[rt]
	return n, ok
}

func lookupType(name string) (reflect.Type, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := nameToType[name]
	return t, ok
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

var encoderPool = sync.Pool{New: func() any {
	codec.encPoolMisses.Add(1)
	return &Encoder{types: make(map[reflect.Type]uint64)}
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
	e.buf = e.buf[:0]
	e.wroteHdr = false
	e.err = nil
	if len(e.types) > 0 {
		clear(e.types)
	}
	if len(e.refs) > 0 {
		clear(e.refs)
	}
	e.nextRef = 0
	e.depth = 0
	encoderPool.Put(e)
}

// Marshal pickles v into a fresh byte slice. It is the paper's PickleWrite.
func Marshal(v any) ([]byte, error) {
	e := getEncoder()
	if err := e.Encode(v); err != nil {
		putEncoder(e)
		return nil, err
	}
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	putEncoder(e)
	return out, nil
}

// AppendMarshal pickles v and appends the result to dst, returning the
// extended slice. It is Marshal for callers that already own a buffer —
// the log append path — so steady-state pickling allocates nothing.
func AppendMarshal(dst []byte, v any) ([]byte, error) {
	e := getEncoder()
	if err := e.Encode(v); err != nil {
		putEncoder(e)
		return dst, err
	}
	dst = append(dst, e.buf...)
	putEncoder(e)
	return dst, nil
}

// Unmarshal reads a pickled value from data into the variable pointed to by
// ptr. It is the paper's PickleRead. It decodes directly from data on
// pooled state, with no intermediate buffering.
func Unmarshal(data []byte, ptr any) error {
	codec.decPoolGets.Add(1)
	d := decoderPool.Get().(*Decoder)
	d.data = data
	err := d.Decode(ptr)
	d.data = nil
	d.pos = 0
	d.types = d.types[:0]
	d.readHdr = false
	if len(d.refs) > 0 {
		clear(d.refs)
	}
	d.depth = 0
	decoderPool.Put(d)
	return err
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
