package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"time"

	"smalldb/internal/vfs"
)

// The flight recorder is a crash-surviving ring of recent events: a small
// fixed-size file of fixed-size slots, each holding one encoded event
// protected by a CRC, written through vfs so the crash-consistency harness
// can torture it like any other durable structure. After a power cut the
// file's durable image holds the last events the process recorded — the
// black box a post-mortem (`logdump -flight`, /debug/flight) reads to see
// what the store was doing at the moment of death.
//
// Layout: a 16-byte file header (magic, slot size, slot count), then slot
// i at header+i*slotSize. Each slot is
//
//	magic "FLR1" | seq u64 | used u16 | payload[used] | zero pad | crc32c
//
// with the CRC (Castagnoli) covering everything before it. Slot i holds
// the event with sequence (i mod slots)+k·slots for the largest k written,
// so the file is a ring over event sequence numbers; a torn or damaged
// slot fails its CRC (or reads as vfs.ErrDamaged) and is skipped by the
// decoder — one lost slot never poisons the rest of the tail.
//
// Durability: with FlushEvery == 0 every event is written and synced
// before Emit returns, making the recorder's fs-op sequence deterministic
// (what crashtest needs); with FlushEvery > 0 a background goroutine
// flushes dirty slots on that cadence, keeping the recorder off the commit
// path for production daemons. PanicFlush flushes on the way out of a
// panicking goroutine.

const (
	flightFileMagic = "FLRH"
	flightSlotMagic = "FLR1"
	flightHeaderLen = 16
	flightSlotOver  = 4 + 8 + 2 + 4 // slot magic + seq + used + crc
)

var flightCRC = crc32.MakeTable(crc32.Castagnoli)

// FlightConfig configures a FlightRecorder.
type FlightConfig struct {
	// FS is the file system the ring lives on.
	FS vfs.FS
	// Name is the ring's file name; default "flightrec".
	Name string
	// Slots is the ring capacity in events; default 256.
	Slots int
	// SlotSize is the fixed byte size of one slot (an event that encodes
	// larger has its attributes dropped to fit); default 256.
	SlotSize int
	// FlushEvery is the background flush cadence. Zero means synchronous:
	// every Emit writes and syncs its slot before returning.
	FlushEvery time.Duration
}

// A FlightRecorder is a Tracer whose recent events survive a crash. See
// the package comment above for the on-disk contract.
type FlightRecorder struct {
	mu       sync.Mutex
	f        vfs.File
	name     string
	slotSize int
	slots    int

	seq     uint64   // last assigned event sequence (1-based)
	flushed uint64   // last sequence durably written and synced
	enc     [][]byte // encoded-slot ring, index (seq-1)%slots
	mem     []Event  // in-memory mirror ring, same indexing
	err     error    // latest write/sync failure (diagnostic only)

	syncEach bool
	stop     chan struct{}
	done     chan struct{}
}

// OpenFlight creates (truncating any previous run's ring) and starts a
// flight recorder, emitting an initial "flight.start" event so the ring is
// non-empty from the first durable instant.
func OpenFlight(cfg FlightConfig) (*FlightRecorder, error) {
	if cfg.Name == "" {
		cfg.Name = "flightrec"
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 256
	}
	if cfg.SlotSize <= flightSlotOver+64 {
		cfg.SlotSize = 256
	}
	f, err := cfg.FS.Create(cfg.Name)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, flightHeaderLen)
	copy(hdr, flightFileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(cfg.SlotSize))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(cfg.Slots))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	r := &FlightRecorder{
		f:        f,
		name:     cfg.Name,
		slotSize: cfg.SlotSize,
		slots:    cfg.Slots,
		enc:      make([][]byte, cfg.Slots),
		mem:      make([]Event, cfg.Slots),
		syncEach: cfg.FlushEvery <= 0,
	}
	if !r.syncEach {
		r.stop = make(chan struct{})
		r.done = make(chan struct{})
		go r.flushLoop(cfg.FlushEvery)
	}
	r.Emit(Event{Name: "flight.start", Time: time.Now()})
	return r, nil
}

// Emit implements Tracer. Write failures are swallowed (a flight recorder
// on a dead disk must not take the store down with it); the latest failure
// is kept for Err.
func (r *FlightRecorder) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	r.seq++
	i := int((r.seq - 1) % uint64(r.slots))
	if r.enc[i] == nil {
		r.enc[i] = make([]byte, r.slotSize)
	}
	encodeFlightSlot(r.enc[i], r.seq, e)
	r.mem[i] = e
	if r.syncEach {
		r.flushLocked()
	}
	r.mu.Unlock()
}

// flushLocked writes every slot in (r.flushed, r.seq] and syncs. Caller
// holds r.mu.
func (r *FlightRecorder) flushLocked() {
	if r.seq == r.flushed {
		return
	}
	lo := r.flushed + 1
	if r.seq > uint64(r.slots) && lo < r.seq-uint64(r.slots)+1 {
		lo = r.seq - uint64(r.slots) + 1 // older slots were overwritten
	}
	var failed error
	for s := lo; s <= r.seq; s++ {
		i := int((s - 1) % uint64(r.slots))
		off := int64(flightHeaderLen) + int64(i)*int64(r.slotSize)
		if _, err := r.f.WriteAt(r.enc[i], off); err != nil {
			failed = err
			break
		}
	}
	if failed == nil {
		failed = r.f.Sync()
	}
	if failed != nil {
		r.err = failed
		return
	}
	r.flushed = r.seq
}

// Flush writes any unflushed slots and syncs the ring.
func (r *FlightRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	if r.flushed != r.seq {
		return r.err
	}
	return nil
}

// Err reports the most recent write or sync failure, if any.
func (r *FlightRecorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// PanicFlush flushes the ring when the calling goroutine is panicking,
// then re-panics. Use as `defer rec.PanicFlush()` near the top of main so
// the black box is durable before the process dies.
func (r *FlightRecorder) PanicFlush() {
	if p := recover(); p != nil {
		r.Flush()
		panic(p)
	}
}

func (r *FlightRecorder) flushLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	defer close(r.done)
	for {
		select {
		case <-t.C:
			r.Flush()
		case <-r.stop:
			return
		}
	}
}

// Close flushes and closes the ring file.
func (r *FlightRecorder) Close() error {
	if r.stop != nil {
		close(r.stop)
		<-r.done
	}
	err := r.Flush()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Events returns the recorder's in-memory tail, oldest first — what
// /debug/flight serves on a live process.
func (r *FlightRecorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.seq
	if n > uint64(r.slots) {
		n = uint64(r.slots)
	}
	out := make([]Event, 0, n)
	for s := r.seq - n + 1; s <= r.seq && r.seq > 0; s++ {
		out = append(out, r.mem[int((s-1)%uint64(r.slots))])
	}
	return out
}

// encodeFlightSlot encodes e with sequence seq into buf (one whole slot).
// Attributes that do not fit are dropped; name and error are truncated.
func encodeFlightSlot(buf []byte, seq uint64, e Event) {
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, flightSlotMagic)
	binary.LittleEndian.PutUint64(buf[4:], seq)
	p := buf[14 : len(buf)-4] // payload area
	w := 0
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(p[w:], v)
		w += 8
	}
	put64(uint64(e.Time.UnixNano()))
	put64(uint64(e.Dur))
	put64(uint64(e.Trace))
	put64(uint64(e.Span))
	put64(uint64(e.Parent))
	// putStr truncates s to fit the payload while reserving `reserve`
	// trailing bytes for the fields that must follow it (the error length
	// byte and the attribute count); the minimum slot size guarantees the
	// fixed fields plus all three length/count bytes always fit.
	putStr := func(s string, reserve int) {
		if len(s) > 255 {
			s = s[:255]
		}
		if max := len(p) - reserve - w - 1; len(s) > max {
			if max < 0 {
				max = 0
			}
			s = s[:max]
		}
		p[w] = byte(len(s))
		w++
		w += copy(p[w:], s)
	}
	putStr(e.Name, 2) // reserve the err-length and attr-count bytes
	if e.Err != nil {
		putStr(e.Err.Error(), 1) // reserve the attr-count byte
	} else {
		putStr("", 1)
	}
	// Attribute count placeholder, then as many attrs as fit.
	np := w
	p[w] = 0
	w++
	n := 0
	for _, a := range e.Attrs {
		if n == 255 {
			break
		}
		val := attrText(a.Value)
		if len(a.Key) > 255 {
			continue
		}
		if len(val) > 255 {
			val = val[:255]
		}
		if w+2+len(a.Key)+len(val) > len(p) {
			break
		}
		p[w] = byte(len(a.Key))
		w++
		w += copy(p[w:], a.Key)
		p[w] = byte(len(val))
		w++
		w += copy(p[w:], val)
		n++
	}
	p[np] = byte(n)
	binary.LittleEndian.PutUint16(buf[12:], uint16(w))
	crc := crc32.Checksum(buf[:len(buf)-4], flightCRC)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc)
}

// attrText is fmt.Sprint(v) without fmt's per-call machinery for the kinds
// events carry; anything else, and an error that formats itself or panics,
// goes through fmt.Sprint.
func attrText(v any) (s string) {
	switch v := v.(type) {
	case string:
		return v
	case int:
		return strconv.FormatInt(int64(v), 10)
	case int8:
		return strconv.FormatInt(int64(v), 10)
	case int16:
		return strconv.FormatInt(int64(v), 10)
	case int32:
		return strconv.FormatInt(int64(v), 10)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint:
		return strconv.FormatUint(uint64(v), 10)
	case uint8:
		return strconv.FormatUint(uint64(v), 10)
	case uint16:
		return strconv.FormatUint(uint64(v), 10)
	case uint32:
		return strconv.FormatUint(uint64(v), 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case bool:
		return strconv.FormatBool(v)
	case time.Duration:
		return v.String()
	case fmt.Formatter: // fmt prefers Format, even to Error
	case error:
		defer func() {
			if recover() != nil {
				s = fmt.Sprint(v) // e.g. a nil pointer receiver: fmt prints <nil>
			}
		}()
		return v.Error()
	}
	return fmt.Sprint(v)
}

// decodeFlightSlot decodes one slot, returning its sequence and event.
// ok is false for empty, torn, or damaged slots.
func decodeFlightSlot(buf []byte) (seq uint64, e Event, ok bool) {
	if len(buf) < flightSlotOver || string(buf[:4]) != flightSlotMagic {
		return 0, Event{}, false
	}
	crc := crc32.Checksum(buf[:len(buf)-4], flightCRC)
	if crc != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return 0, Event{}, false
	}
	seq = binary.LittleEndian.Uint64(buf[4:])
	used := int(binary.LittleEndian.Uint16(buf[12:]))
	p := buf[14 : len(buf)-4]
	if used > len(p) || used < 5*8+2+1 {
		return 0, Event{}, false
	}
	p = p[:used]
	w := 0
	get64 := func() uint64 {
		v := binary.LittleEndian.Uint64(p[w:])
		w += 8
		return v
	}
	e.Time = time.Unix(0, int64(get64()))
	e.Dur = time.Duration(get64())
	e.Trace = TraceID(get64())
	e.Span = SpanID(get64())
	e.Parent = SpanID(get64())
	getStr := func() (string, bool) {
		if w >= len(p) {
			return "", false
		}
		n := int(p[w])
		w++
		if w+n > len(p) {
			return "", false
		}
		s := string(p[w : w+n])
		w += n
		return s, true
	}
	name, ok2 := getStr()
	if !ok2 {
		return 0, Event{}, false
	}
	e.Name = name
	es, ok2 := getStr()
	if !ok2 {
		return 0, Event{}, false
	}
	if es != "" {
		e.Err = errors.New(es)
	}
	if w >= len(p) {
		return 0, Event{}, false
	}
	na := int(p[w])
	w++
	for i := 0; i < na; i++ {
		k, ok2 := getStr()
		if !ok2 {
			return 0, Event{}, false
		}
		v, ok2 := getStr()
		if !ok2 {
			return 0, Event{}, false
		}
		e.Attrs = append(e.Attrs, Attr{Key: k, Value: v})
	}
	return seq, e, true
}

// ReadFlight decodes the durable image of a flight-recorder ring, oldest
// event first. Torn or damaged slots are skipped; an absent file is an
// error, a present-but-empty ring decodes to no events.
func ReadFlight(fs vfs.FS, name string) ([]Event, error) {
	if name == "" {
		name = "flightrec"
	}
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, flightHeaderLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("obs: flight header unreadable: %w", err)
	}
	if string(hdr[:4]) != flightFileMagic {
		return nil, fmt.Errorf("obs: %s is not a flight-recorder ring", name)
	}
	slotSize := int(binary.LittleEndian.Uint32(hdr[4:]))
	slots := int(binary.LittleEndian.Uint32(hdr[8:]))
	if slotSize <= flightSlotOver || slotSize > 1<<20 || slots <= 0 || slots > 1<<20 {
		return nil, fmt.Errorf("obs: flight header corrupt (slotSize=%d slots=%d)", slotSize, slots)
	}
	type rec struct {
		seq uint64
		e   Event
	}
	var recs []rec
	buf := make([]byte, slotSize)
	for i := 0; i < slots; i++ {
		off := int64(flightHeaderLen) + int64(i)*int64(slotSize)
		if _, err := f.ReadAt(buf, off); err != nil {
			continue // short file tail, or a damaged (ErrDamaged) slot
		}
		if seq, e, ok := decodeFlightSlot(buf); ok {
			recs = append(recs, rec{seq, e})
		}
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j-1].seq > recs[j].seq; j-- {
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = r.e
	}
	return out, nil
}
