package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/pickle"
)

// frameBytes builds a well-formed untraced frame around payload.
func frameBytes(payload []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	return append(hdr[:n], payload...)
}

// tracedFrameBytes builds a frame carrying the trace-context extension.
func tracedFrameBytes(payload []byte, sc obs.SpanContext) []byte {
	var hdr [4 * binary.MaxVarintLen64]byte
	n := 0
	hdr[n] = 0
	n++
	n += binary.PutUvarint(hdr[n:], uint64(sc.Trace))
	n += binary.PutUvarint(hdr[n:], uint64(sc.Span))
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	return append(hdr[:n], payload...)
}

// FuzzDecodeFrame feeds arbitrary bytes to the wire-frame reader and the
// full message decoder. Truncated, garbage, or oversized frames must
// error — never panic, hang, or allocate anywhere near the claimed length.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: a valid request frame, the same frame with a trace
	// context, empty input, a truncated frame, an oversized length claim,
	// and a bare extension sentinel (a zero length with nothing after it).
	valid, err := pickle.Marshal(&request{ID: 1, Method: "NS.Lookup", Client: "c1", Token: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameBytes(valid))
	f.Add(tracedFrameBytes(valid, obs.SpanContext{Trace: 0xdeadbeef, Span: 0x1234}))
	f.Add([]byte{})
	f.Add(frameBytes(valid)[:3])
	var huge [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(huge[:], maxMessage+1)
	f.Add(huge[:n])
	f.Add([]byte{0})
	// A doubled sentinel: extension header followed by another zero length
	// must error, not recurse or loop.
	f.Add([]byte{0, 1, 1, 0})
	// A large claimed length with only a few real bytes: must error from
	// truncation without allocating the claimed size up front.
	var big [binary.MaxVarintLen64]byte
	n = binary.PutUvarint(big[:], 32<<20)
	f.Add(append(big[:n], 1, 2, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if len(buf) > maxMessage {
				t.Fatalf("readFrame returned %d bytes, over the limit", len(buf))
			}
			if len(buf) > len(data) {
				t.Fatalf("readFrame returned %d bytes from %d input bytes", len(buf), len(data))
			}
		}
		// The full decode path must also never panic on garbage.
		var req request
		_, _ = readMessage(bufio.NewReader(bytes.NewReader(data)), &req)
	})
}

// scriptedConn is a hostile server's end of a connection: it answers
// whatever is written to it with reply's bytes, then reads block until
// Close, as a stalled server's would.
type scriptedConn struct {
	reply  *bytes.Reader
	closed chan struct{}
	once   sync.Once
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
		return len(p), nil
	}
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	if c.reply.Len() > 0 {
		return c.reply.Read(p)
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *scriptedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// FuzzClientReply answers a dialer client's first call with arbitrary
// bytes: a reply to another call, a truncated frame, a trace extension,
// garbage. The call must return an error or a result of the reply's type,
// never panic, and never outlive its deadline; and once the hostile server
// hangs up, the next call reaches a well-behaved one and succeeds.
func FuzzClientReply(f *testing.F) {
	payload, err := pickle.Marshal(&response{ID: 1, Result: &ArithReply{Sum: 3, Product: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameBytes(payload)) // the right reply; the rest are in testdata
	srv := NewServer()
	if err := srv.Register("Arith", Arith{}); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	wellBehaved := pipeDialer(srv)

	f.Fuzz(func(t *testing.T, data []byte) {
		hostile := &scriptedConn{reply: bytes.NewReader(data), closed: make(chan struct{})}
		dials := 0 // dial runs under the client's lock
		c := NewClientDialer(func() (io.ReadWriteCloser, error) {
			if dials++; dials == 1 {
				return hostile, nil
			}
			return wellBehaved()
		})
		defer c.Close()

		const deadline = 20 * time.Millisecond
		start := time.Now()
		var r ArithReply
		err := c.CallTimeout("Arith.Do", &ArithArgs{A: 1, B: 2}, &r, deadline)
		if took := time.Since(start); took > deadline+time.Second {
			t.Fatalf("the call took %v against a %v deadline (err %v)", took, deadline, err)
		}

		hostile.Close()
		var next ArithReply
		if Retryable(err) {
			// The reply retired the connection: the next call dials afresh.
			err = c.CallTimeout("Arith.Do", &ArithArgs{A: 2, B: 3}, &next, 5*time.Second)
		} else {
			// The connection was kept, and is dead now: one retry redials.
			err = c.CallRetry(obs.SpanContext{}, "Arith.Do", &ArithArgs{A: 2, B: 3}, &next, RetryPolicy{MaxAttempts: 2, Budget: 5 * time.Second})
		}
		if err != nil || next != (ArithReply{Sum: 5, Product: 6}) {
			t.Fatalf("next call against a well-behaved server: %v %+v", err, next)
		}
	})
}

// TestFrameRoundTrip pins the framing format: writeMessage output decodes
// through readMessage, untraced frames carry no context, and traced frames
// carry theirs intact.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &request{ID: 42, Method: "Svc.M", Client: "me", Token: 9}
	if err := writeMessage(&buf, in, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	var out request
	sc, err := readMessage(bufio.NewReader(&buf), &out)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Valid() {
		t.Fatalf("untraced frame decoded with context %+v", sc)
	}
	if out.ID != in.ID || out.Method != in.Method || out.Client != in.Client || out.Token != in.Token {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

// TestFrameRoundTripTraced pins the trace-context extension: the context
// survives the wire and the payload still decodes.
func TestFrameRoundTripTraced(t *testing.T) {
	var buf bytes.Buffer
	in := &request{ID: 7, Method: "Svc.M"}
	want := obs.SpanContext{Trace: 0xfeedface01, Span: 0xabc}
	if err := writeMessage(&buf, in, want); err != nil {
		t.Fatal(err)
	}
	var out request
	sc, err := readMessage(bufio.NewReader(&buf), &out)
	if err != nil {
		t.Fatal(err)
	}
	if sc != want {
		t.Fatalf("trace context mangled: got %+v want %+v", sc, want)
	}
	if out.ID != in.ID || out.Method != in.Method {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

// TestReadFrameUntracedCompat pins backwards compatibility byte-for-byte:
// a frame written with a zero context is identical to the pre-extension
// framing (no sentinel, no IDs).
func TestReadFrameUntracedCompat(t *testing.T) {
	var buf bytes.Buffer
	in := &request{ID: 3, Method: "Svc.M"}
	if err := writeMessage(&buf, in, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	payload, err := pickle.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), frameBytes(payload)) {
		t.Fatal("untraced frame differs from legacy framing")
	}
}

// TestReadFrameChunkedLargeFrame exercises the chunked-growth path with a
// genuine frame bigger than one chunk.
func TestReadFrameChunkedLargeFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, frameChunk*3+17)
	got, _, err := readFrame(bufio.NewReader(bytes.NewReader(frameBytes(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("large frame corrupted: %d bytes", len(got))
	}
}

// TestReadFrameOversizedClaim checks an over-limit length errors without
// reading the body.
func TestReadFrameOversizedClaim(t *testing.T) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], maxMessage+1)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:n]))); err == nil {
		t.Fatal("oversized claim accepted")
	}
}

// TestReadFrameDoubleSentinel checks that a zero length following the
// extension header errors instead of being treated as a nested extension.
func TestReadFrameDoubleSentinel(t *testing.T) {
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 1, 1, 0}))); err == nil {
		t.Fatal("double sentinel accepted")
	}
}
