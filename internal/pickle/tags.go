package pickle

// Wire tags. Every encoded value starts with one tag byte. The stream as a
// whole begins with the magic byte so that a checkpoint or log entry fed to
// the wrong reader fails loudly instead of decoding garbage; a stream pickled
// against a Table begins with tableMagic and the table's fingerprint instead.
const tableMagic byte = 0xD7

const (
	magic byte = 0xD6 // arbitrary, unlikely first byte of text

	tNil     byte = iota + 1 // nil pointer, map, slice or interface
	tFalse                   // bool false
	tTrue                    // bool true
	tInt                     // zigzag varint
	tUint                    // uvarint
	tFloat32                 // 4 bytes little-endian IEEE 754
	tFloat64                 // 8 bytes little-endian IEEE 754
	tComplex                 // two float64s
	tString                  // uvarint length + bytes
	tBytes                   // uvarint length + bytes ([]byte fast path)
	tSlice                   // uvarint length + elements
	tArray                   // uvarint length + elements
	tMap                     // uvarint refid + uvarint length + key/value pairs (also a MapPair slice)
	tStruct                  // uvarint typeid [+ inline definition] + fields
	tPtr                     // uvarint refid + pointee
	tRef                     // uvarint refid of a previously defined ptr/map
	tIface                   // type name string + concrete value
	tBinary                  // uvarint length + encoding.BinaryMarshaler bytes
	tIfaceID                 // uvarint Table name id + concrete value (table-relative streams only)
)

func tagName(t byte) string {
	switch t {
	case tNil:
		return "nil"
	case tFalse, tTrue:
		return "bool"
	case tInt:
		return "int"
	case tUint:
		return "uint"
	case tFloat32:
		return "float32"
	case tFloat64:
		return "float64"
	case tComplex:
		return "complex"
	case tString:
		return "string"
	case tBytes:
		return "bytes"
	case tSlice:
		return "slice"
	case tArray:
		return "array"
	case tMap:
		return "map"
	case tStruct:
		return "struct"
	case tPtr:
		return "pointer"
	case tRef:
		return "ref"
	case tIface, tIfaceID:
		return "interface"
	case tBinary:
		return "binary-marshaled"
	default:
		return "invalid"
	}
}
