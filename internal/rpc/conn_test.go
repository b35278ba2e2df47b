package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/pickle"
)

// BlobArgs carries the two kinds pickle copies out of its input.
type BlobArgs struct {
	S string
	B []byte
}

func init() { pickle.Register(&BlobArgs{}) }

// barrierSvc holds every Hold call until release is closed.
type barrierSvc struct {
	held    atomic.Int64
	release chan struct{}
}

func (b *barrierSvc) Hold(arg *ArithArgs, reply *ArithReply) error {
	b.held.Add(1)
	<-b.release
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServeConnStartsNoGoroutinePerCall: over TCP, as nsd serves, a call
// runs on the goroutine that read it, and the client's caller reads its own
// reply. The first call leaves only the connection's server beside the
// baseline, 1000 more leave that count where it was, and closing the client
// returns to the baseline. The bounds are upper ones: a goroutine an
// earlier test left behind may exit meanwhile, but nothing else starts one.
func TestServeConnStartsNoGoroutinePerCall(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := NewServer()
	if err := srv.Register("Arith", Arith{}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		conn, err := l.Accept()
		l.Close()
		if err == nil {
			srv.ServeConn(conn)
		}
		close(served)
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	call := func(i int) {
		var r ArithReply
		if err := c.Call("Arith.Do", &ArithArgs{A: i, B: 1}, &r); err != nil || r.Sum != i+1 {
			t.Fatalf("call %d: %v %+v", i, err, r)
		}
	}
	call(0)
	first := runtime.NumGoroutine()
	if first > baseline+1 {
		t.Fatalf("the first call left %d goroutines, want at most the baseline %d + the connection's server", first, baseline)
	}
	for i := 1; i <= 1000; i++ {
		call(i)
	}
	if got := runtime.NumGoroutine(); got > first {
		t.Fatalf("1000 sequential calls left %d goroutines, the first call %d", got, first)
	}

	c.Close()
	<-served
	waitFor(t, fmt.Sprintf("goroutines back to the baseline of %d", baseline), func() bool {
		return runtime.NumGoroutine() <= baseline
	})
	srv.Close()
}

// TestCallsOnOneConnectionAnsweredInOrder: a fast call queued behind a held
// one on the same client is not answered until the held call is, and then
// both replies are right.
func TestCallsOnOneConnectionAnsweredInOrder(t *testing.T) {
	c, srv := pipePair(t)
	bar := &barrierSvc{release: make(chan struct{})}
	if err := srv.Register("Bar", bar); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() { held <- c.Call("Bar.Hold", &ArithArgs{}, nil) }()
	waitFor(t, "the held call to reach its method", func() bool { return bar.held.Load() == 1 })

	var fast ArithReply
	fastDone := make(chan error, 1)
	go func() { fastDone <- c.Call("Arith.Do", &ArithArgs{A: 1, B: 2}, &fast) }()
	select {
	case err := <-fastDone:
		t.Fatalf("the fast call was answered (%v) while the call ahead of it was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(bar.release)
	if err := <-held; err != nil {
		t.Fatalf("held call: %v", err)
	}
	if err := <-fastDone; err != nil || fast.Sum != 3 || fast.Product != 2 {
		t.Fatalf("fast call: %v %+v", err, fast)
	}
}

// TestFrameBufferReuseDoesNotAlias decodes a request holding a string and a
// byte slice, reads a second frame of the same size into the same buffer,
// and checks the first values kept their bytes.
func TestFrameBufferReuseDoesNotAlias(t *testing.T) {
	var wire bytes.Buffer
	for _, fill := range []byte{'a', 'z'} {
		arg := &BlobArgs{S: string(bytes.Repeat([]byte{fill}, 40)), B: bytes.Repeat([]byte{fill}, 40)}
		if err := writeMessage(&wire, &request{ID: 1, Method: "Blob.Put", Arg: arg}, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&wire)
	var buf []byte
	var first, second request
	if _, err := decodeFrame(&buf, r, &first); err != nil {
		t.Fatal(err)
	}
	storage := &buf[0]
	if _, err := decodeFrame(&buf, r, &second); err != nil {
		t.Fatal(err)
	}
	if &buf[0] != storage {
		t.Fatal("the second frame did not reuse the first one's buffer; the test proves nothing")
	}
	a, z := first.Arg.(*BlobArgs), second.Arg.(*BlobArgs)
	if want := string(bytes.Repeat([]byte{'a'}, 40)); a.S != want || string(a.B) != want {
		t.Fatalf("first request changed under the second frame: %q %q", a.S, a.B)
	}
	if z.S[0] != 'z' || z.B[0] != 'z' {
		t.Fatalf("second request decoded wrong: %q %q", z.S, z.B)
	}
}

// TestLargeFrameBufferDropped: a buffer grown past frameChunk by one large
// frame is not kept for the next one.
func TestLargeFrameBufferDropped(t *testing.T) {
	var wire bytes.Buffer
	for _, size := range []int{3*frameChunk + 5, 10} {
		req := &request{ID: 1, Method: "Blob.Put", Arg: &BlobArgs{B: make([]byte, size)}}
		if err := writeMessage(&wire, req, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&wire)
	var buf []byte
	var big, small request
	if _, err := decodeFrame(&buf, r, &big); err != nil {
		t.Fatal(err)
	}
	if len(big.Arg.(*BlobArgs).B) != 3*frameChunk+5 {
		t.Fatal("large frame decoded wrong")
	}
	if buf != nil {
		t.Fatalf("kept a %d-byte buffer after a large frame", cap(buf))
	}
	if _, err := decodeFrame(&buf, r, &small); err != nil {
		t.Fatal(err)
	}
	if cap(buf) == 0 || cap(buf) > frameChunk {
		t.Fatalf("small frame left a buffer of %d bytes", cap(buf))
	}
}

// TestFrameCutMidValueIsDecodeError: a frame whose payload ends inside the
// pickled message is a decode error, not the connection's EOF.
func TestFrameCutMidValueIsDecodeError(t *testing.T) {
	payload, err := pickle.Marshal(&request{ID: 5, Method: "Svc.M", Client: "me", Token: 3})
	if err != nil {
		t.Fatal(err)
	}
	var req request
	_, err = readMessage(bufio.NewReader(bytes.NewReader(frameBytes(payload[:len(payload)-2]))), &req)
	var pe *pickle.Error
	if !errors.As(err, &pe) {
		t.Fatalf("cut payload: %T %v, want *pickle.Error", err, err)
	}
}

// TestPerMethodMetrics: series are bound for a service registered before
// Instrument and one registered after, and names no method answers count
// under "unknown" without adding series.
func TestPerMethodMetrics(t *testing.T) {
	srv := NewServer()
	if err := srv.Register("Arith", Arith{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, nil)
	if err := srv.Register("Echo", Echo{}); err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	c := NewClient(cConn)
	defer func() { c.Close(); srv.Close() }()

	for i := 0; i < 3; i++ {
		if err := c.Call("Arith.Do", &ArithArgs{A: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := c.Call("Echo.Echo", &EchoMsg{S: "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Call("Arith.Fail", &ArithArgs{}, nil); err == nil {
		t.Fatal("Arith.Fail succeeded")
	}
	series := len(reg.Names())
	const garbage = 50
	for i := 0; i < garbage; i++ {
		name := fmt.Sprintf("%s%d", []string{"Nope.X", "Arith.Nope", "Malformed", ".", "Echo."}[i%5], i)
		if err := c.Call(name, &ArithArgs{}, nil); err == nil {
			t.Fatalf("garbage name %q answered", name)
		}
	}
	if got := len(reg.Names()); got != series {
		t.Errorf("garbage names grew the registry from %d to %d series", series, got)
	}
	for name, want := range map[string]uint64{
		"rpc_calls_Arith.Do": 3, "rpc_errors_Arith.Do": 0, "rpc_calls_Echo.Echo": 2,
		"rpc_calls_Arith.Fail": 1, "rpc_errors_Arith.Fail": 1,
		"rpc_calls_unknown": garbage, "rpc_errors_unknown": garbage,
		"rpc_requests": 3 + 2 + 1 + garbage, "rpc_errors": 1 + garbage,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]uint64{"rpc_latency_ns_Arith.Do": 3, "rpc_latency_ns_Echo.Echo": 2, "rpc_latency_ns_unknown": garbage} {
		if got := reg.Histogram(name).Snapshot().Count; got != want {
			t.Errorf("%s counts %d, want %d", name, got, want)
		}
	}
}
