package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

func TestFlightRoundTrip(t *testing.T) {
	fs := vfs.NewMem(1)
	fr, err := OpenFlight(FlightConfig{FS: fs, FlushEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := Event{
		Name:   "update.commit",
		Time:   time.Unix(100, 250),
		Dur:    3 * time.Millisecond,
		Err:    fmt.Errorf("boom"),
		Trace:  TraceID(0xdead),
		Span:   SpanID(0xbeef),
		Parent: SpanID(0xcafe),
		Attrs:  []Attr{A("seq", 7), A("bytes", 512)},
	}
	fr.Emit(want)
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadFlight(fs, "")
	if err != nil {
		t.Fatal(err)
	}
	// Index 0 is the flight.start marker OpenFlight writes.
	if len(events) != 2 || events[0].Name != "flight.start" {
		t.Fatalf("decoded %d events (%v), want flight.start + 1", len(events), events)
	}
	got := events[1]
	if got.Name != want.Name || !got.Time.Equal(want.Time) || got.Dur != want.Dur {
		t.Errorf("identity fields: %+v", got)
	}
	if got.Trace != want.Trace || got.Span != want.Span || got.Parent != want.Parent {
		t.Errorf("trace fields: %+v", got)
	}
	if got.Err == nil || got.Err.Error() != "boom" {
		t.Errorf("err: %v", got.Err)
	}
	if len(got.Attrs) != 2 || got.Attrs[0].Key != "seq" || fmt.Sprint(got.Attrs[0].Value) != "7" {
		t.Errorf("attrs: %+v", got.Attrs)
	}
}

func TestFlightRingWraps(t *testing.T) {
	fs := vfs.NewMem(2)
	fr, err := OpenFlight(FlightConfig{FS: fs, Slots: 4, SlotSize: 256, FlushEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fr.Emit(Event{Name: fmt.Sprintf("e%d", i)})
	}
	// In-memory tail and durable image must agree: the 4 newest events.
	mem := fr.Events()
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFlight(fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 || len(mem) != 4 {
		t.Fatalf("disk %d / mem %d events, want 4", len(events), len(mem))
	}
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf("e%d", 6+i)
		if events[i].Name != want || mem[i].Name != want {
			t.Errorf("slot %d: disk=%s mem=%s want=%s", i, events[i].Name, mem[i].Name, want)
		}
	}
}

func TestFlightDamagedSlotSkipped(t *testing.T) {
	mem := vfs.NewMem(3)
	fr, err := OpenFlight(FlightConfig{FS: mem, Slots: 8, SlotSize: 128, FlushEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fr.Emit(Event{Name: fmt.Sprintf("e%d", i)})
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	// Hard-fail the media under e2's slot (sequence 4: flight.start is 1,
	// e0 is 2, so e2 lives in slot index 3).
	if err := mem.Damage("flightrec", int64(flightHeaderLen+3*128), 32); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFlight(mem, "")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range events {
		names = append(names, e.Name)
	}
	want := "flight.start e0 e1 e3 e4"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("decoded %q, want %q (damaged slot skipped, rest intact)", got, want)
	}
}

func TestFlightCorruptSlotFailsCRC(t *testing.T) {
	fs := vfs.NewMem(4)
	fr, err := OpenFlight(FlightConfig{FS: fs, Slots: 4, SlotSize: 128, FlushEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	fr.Emit(Event{Name: "keep"})
	fr.Emit(Event{Name: "corrupt-me"})
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the third slot's payload: its CRC must fail and
	// only that slot disappear.
	f, err := fs.OpenRW("flightrec")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, int64(flightHeaderLen+2*128+20)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	events, err := ReadFlight(fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Name != "flight.start" || events[1].Name != "keep" {
		t.Errorf("decoded %+v, want flight.start + keep", events)
	}
}

func TestFlightPeriodicFlush(t *testing.T) {
	fs := vfs.NewMem(5)
	fr, err := OpenFlight(FlightConfig{FS: fs, FlushEvery: time.Hour}) // cadence never fires in-test
	if err != nil {
		t.Fatal(err)
	}
	fr.Emit(Event{Name: "buffered"})
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFlight(fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Name != "buffered" {
		t.Errorf("after explicit Flush: %+v", events)
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightLongFieldsTruncated(t *testing.T) {
	fs := vfs.NewMem(6)
	// 384-byte slots: enough payload for the 255-cap name plus a truncated
	// (but non-empty) error; the attrs get squeezed out entirely.
	fr, err := OpenFlight(FlightConfig{FS: fs, Slots: 4, SlotSize: 384, FlushEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	fr.Emit(Event{
		Name:  strings.Repeat("n", 300),
		Err:   fmt.Errorf("%s", strings.Repeat("e", 300)),
		Attrs: []Attr{A(strings.Repeat("k", 40), strings.Repeat("v", 300)), A("tail", 1)},
	})
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFlight(fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("oversized event must still decode: %+v", events)
	}
	e := events[1]
	if len(e.Name) == 0 || len(e.Name) > 255 {
		t.Errorf("name length %d after truncation", len(e.Name))
	}
	if e.Err == nil {
		t.Error("err lost")
	}
}

// nilErr is an error whose Error panics on a nil receiver, as fmt tolerates.
type nilErr struct{ msg string }

func (e *nilErr) Error() string { return e.msg }

// fmtErr is an error that formats itself: fmt prefers Format to Error.
type fmtErr struct{}

func (fmtErr) Error() string                 { return "via Error" }
func (fmtErr) Format(f fmt.State, verb rune) { fmt.Fprint(f, "via Format") }

// TestFlightAttrTextMatchesSprint: a slot encoded from an attribute of each
// kind is byte-identical to one encoded from fmt.Sprint of it.
func TestFlightAttrTextMatchesSprint(t *testing.T) {
	values := []any{
		"", "text", 0, -1, 42, -1 << 63, int8(-128), int16(-300), int32(1 << 30), int64(-7),
		uint(0), uint8(255), uint16(65535), uint32(1 << 31), uint64(1<<64 - 1), true, false,
		time.Duration(0), -time.Second, 1500 * time.Microsecond, (1234567 * time.Nanosecond).Round(time.Microsecond),
		(90 * time.Minute).Round(time.Second), fmt.Errorf("boom %d", 7), (*nilErr)(nil), &nilErr{"set"}, fmtErr{},
		3.25, []int{1, 2}, TraceID(0xabc), nil, struct{ A int }{4},
	}
	for _, v := range values {
		e := Event{Name: "e", Time: time.Unix(1, 2), Attrs: []Attr{A("k", v), A("tail", 1)}}
		want := Event{Name: "e", Time: e.Time, Attrs: []Attr{A("k", fmt.Sprint(v)), A("tail", "1")}}
		got, exp := make([]byte, 256), make([]byte, 256)
		encodeFlightSlot(got, 9, e)
		encodeFlightSlot(exp, 9, want)
		if string(got) != string(exp) {
			t.Errorf("%T %v: slot differs from the fmt.Sprint one (attrText gives %q)", v, v, attrText(v))
		}
	}
}

func TestReadFlightMissingAndCorruptHeader(t *testing.T) {
	fs := vfs.NewMem(7)
	if _, err := ReadFlight(fs, ""); err == nil {
		t.Error("absent ring must be an error")
	}
	if err := vfs.WriteFile(fs, "flightrec", []byte("not a ring, definitely")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlight(fs, ""); err == nil {
		t.Error("bad magic must be an error")
	}
}

func TestFlightPanicFlush(t *testing.T) {
	fs := vfs.NewMem(8)
	fr, err := OpenFlight(FlightConfig{FS: fs, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PanicFlush must re-panic")
			}
		}()
		defer fr.PanicFlush()
		fr.Emit(Event{Name: "last-words"})
		panic("die")
	}()
	events, err := ReadFlight(fs, "")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range events {
		found = found || e.Name == "last-words"
	}
	if !found {
		t.Errorf("panic-time event not durable: %+v", events)
	}
	fr.Close()
}
