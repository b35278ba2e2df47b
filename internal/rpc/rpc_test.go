package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/pickle"
)

// Arith is the canonical test service.
type Arith struct{}

type ArithArgs struct{ A, B int }

type ArithReply struct{ Sum, Product int }

func (Arith) Do(args *ArithArgs, reply *ArithReply) error {
	reply.Sum = args.A + args.B
	reply.Product = args.A * args.B
	return nil
}

func (Arith) Fail(args *ArithArgs, reply *ArithReply) error {
	return fmt.Errorf("deliberate failure on %d", args.A)
}

func (Arith) Panics(args *ArithArgs, reply *ArithReply) error {
	panic("boom")
}

func (Arith) Slow(args *ArithArgs, reply *ArithReply) error {
	time.Sleep(time.Duration(args.A) * time.Millisecond)
	reply.Sum = args.A
	return nil
}

// unexported or wrong-shaped methods must be skipped.
func (Arith) wrongShape(a int) error { return nil }

type Echo struct{}

type EchoMsg struct{ S string }

func (Echo) Echo(in *EchoMsg, out *EchoMsg) error {
	out.S = in.S
	return nil
}

func init() {
	pickle.Register(&ArithArgs{})
	pickle.Register(&ArithReply{})
	pickle.Register(&EchoMsg{})
}

// pipePair returns a connected client and server over an in-memory pipe.
func pipePair(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := NewServer()
	if err := srv.Register("Arith", Arith{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("Echo", Echo{}); err != nil {
		t.Fatal(err)
	}
	cConn, _ := pipeDialer(srv)()
	c := NewClient(cConn)
	t.Cleanup(func() { c.Close(); srv.Close() })
	return c, srv
}

// pipeDialer dials srv over a fresh in-memory pipe.
func pipeDialer(srv *Server) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		cConn, sConn := net.Pipe()
		go srv.ServeConn(sConn)
		return cConn, nil
	}
}

func TestBasicCall(t *testing.T) {
	c, _ := pipePair(t)
	var reply ArithReply
	if err := c.Call("Arith.Do", &ArithArgs{A: 6, B: 7}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Sum != 13 || reply.Product != 42 {
		t.Errorf("got %+v", reply)
	}
}

func TestRemoteError(t *testing.T) {
	c, _ := pipePair(t)
	err := c.Call("Arith.Fail", &ArithArgs{A: 9}, &ArithReply{})
	var se ServerError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "deliberate failure on 9") {
		t.Fatalf("got %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	c, _ := pipePair(t)
	err := c.Call("Arith.Panics", &ArithArgs{}, &ArithReply{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("got %v", err)
	}
	// The connection survives a handler panic.
	var reply ArithReply
	if err := c.Call("Arith.Do", &ArithArgs{A: 1, B: 1}, &reply); err != nil {
		t.Fatalf("connection dead after panic: %v", err)
	}
}

func TestUnknownTargets(t *testing.T) {
	c, _ := pipePair(t)
	if err := c.Call("Nope.X", &ArithArgs{}, nil); err == nil || !strings.Contains(err.Error(), "unknown service") {
		t.Errorf("got %v", err)
	}
	if err := c.Call("Arith.Nope", &ArithArgs{}, nil); err == nil || !strings.Contains(err.Error(), "no method") {
		t.Errorf("got %v", err)
	}
	if err := c.Call("Malformed", &ArithArgs{}, nil); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("got %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	c, _ := pipePair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply ArithReply
			if err := c.Call("Arith.Do", &ArithArgs{A: i, B: i}, &reply); err != nil {
				errs <- err
				return
			}
			if reply.Sum != 2*i {
				errs <- fmt.Errorf("i=%d sum=%d", i, reply.Sum)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSlowCallDoesNotBlockOtherConnection(t *testing.T) {
	slow, srv := pipePair(t)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	fast := NewClient(cConn)
	defer fast.Close()
	done := make(chan struct{})
	go func() {
		var r ArithReply
		slow.Call("Arith.Slow", &ArithArgs{A: 300}, &r)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	var r ArithReply
	if err := fast.Call("Arith.Do", &ArithArgs{A: 1, B: 2}, &r); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("fast call waited %v behind a slow call on another connection", elapsed)
	}
	<-done
}

// Opaque is registered nowhere, so pickle cannot encode it as an interface
// value.
type Opaque struct{ N int }

type AnyMsg struct{ V any }

func init() { pickle.Register(&AnyMsg{}) }

type opaqueSvc struct{}

func (opaqueSvc) Reply(arg *ArithArgs, reply *AnyMsg) error {
	reply.V = Opaque{arg.A}
	return nil
}

// TestUnpicklableReplyIsAnError: a reply pickle refuses comes back as a
// ServerError naming the failure, and the connection serves the next call.
func TestUnpicklableReplyIsAnError(t *testing.T) {
	c, srv := pipePair(t)
	if err := srv.Register("Opaque", opaqueSvc{}); err != nil {
		t.Fatal(err)
	}
	err := c.CallTimeout("Opaque.Reply", &ArithArgs{A: 1}, &AnyMsg{}, 5*time.Second)
	var se ServerError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "Opaque.Reply: encode reply: pickle:") {
		t.Fatalf("got %v, want a ServerError naming the reply's encode failure", err)
	}
	var r ArithReply
	if err := c.CallTimeout("Arith.Do", &ArithArgs{A: 2, B: 3}, &r, 5*time.Second); err != nil || r.Sum != 5 {
		t.Fatalf("next call on the connection: %v %+v", err, r)
	}
}

// TestUnpicklableArgumentFailsOnlyItsCall: an argument pickle refuses fails
// its own call once, with an error that is not retryable, while a call in
// flight on the same connection completes.
func TestUnpicklableArgumentFailsOnlyItsCall(t *testing.T) {
	c, _ := pipePair(t)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	inflight := reg.Gauge("rpc_inflight")
	slow := make(chan error, 1)
	var sr ArithReply
	go func() { slow <- c.Call("Arith.Slow", &ArithArgs{A: 50}, &sr) }()
	waitFor(t, "the slow call to be in flight", func() bool { return inflight.Value() == 1 })

	err := c.CallRetry(obs.SpanContext{}, "Arith.Do", &AnyMsg{V: Opaque{1}}, nil, RetryPolicy{})
	var pe *pickle.Error
	if !errors.As(err, &pe) || Retryable(err) {
		t.Fatalf("got %v, want a non-retryable error wrapping *pickle.Error", err)
	}
	if n := reg.Counter("rpc_retries").Value(); n != 0 {
		t.Fatalf("CallRetry retried %d times, want one attempt", n)
	}
	if err := <-slow; err != nil || sr.Sum != 50 {
		t.Fatalf("call in flight beside the refused one: %v %+v", err, sr)
	}
	if n := inflight.Value(); n != 0 {
		t.Fatalf("rpc_inflight = %d, want 0", n)
	}
}

func TestOverTCP(t *testing.T) {
	srv := NewServer()
	if err := srv.Register("Echo", Echo{}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out EchoMsg
	if err := c.Call("Echo.Echo", &EchoMsg{S: "over tcp"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.S != "over tcp" {
		t.Errorf("got %q", out.S)
	}
}

// TestCallTimeout: a call that outlives its deadline returns ErrTimeout and
// closes its connection, whose late reply could no longer be told from the
// next call's. A dialer client's next call succeeds on a fresh connection;
// a fixed-connection client's next call finds its one connection dead.
func TestCallTimeout(t *testing.T) {
	fixed, srv := pipePair(t)
	c := NewClientDialer(pipeDialer(srv))
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)
	err := c.CallTimeout("Arith.Slow", &ArithArgs{A: 500}, &ArithReply{}, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if n := reg.Counter("rpc_timeouts").Value(); n != 1 {
		t.Errorf("rpc_timeouts = %d, want 1", n)
	}
	var r ArithReply
	if err := c.CallTimeout("Arith.Do", &ArithArgs{A: 2, B: 3}, &r, time.Second); err != nil || r.Sum != 5 {
		t.Fatalf("next call: %v %+v", err, r)
	}
	if n := reg.Counter("rpc_reconnects").Value(); n != 1 {
		t.Errorf("rpc_reconnects = %d, want 1", n)
	}

	err = fixed.CallTimeout("Arith.Slow", &ArithArgs{A: 500}, &ArithReply{}, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("fixed connection: got %v, want ErrTimeout", err)
	}
	if err := fixed.Call("Arith.Do", &ArithArgs{A: 2, B: 3}, &r); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("fixed connection's next call: got %v, want ErrDisconnected", err)
	}
}

// TestCallTimeoutCoversTheWait: the deadline bounds the wait for a
// connection another call is using, not only the wait for the reply.
func TestCallTimeoutCoversTheWait(t *testing.T) {
	c, srv := pipePair(t)
	bar := &barrierSvc{release: make(chan struct{})}
	if err := srv.Register("Bar", bar); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(bar.release) })
	held := make(chan error, 1)
	go func() { held <- c.Call("Bar.Hold", &ArithArgs{}, nil) }()
	waitFor(t, "the held call to reach its method", func() bool { return bar.held.Load() == 1 })
	// A deadline the wait ignores must still let the call end.
	time.AfterFunc(time.Second, release)

	start := time.Now()
	err := c.CallTimeout("Arith.Do", &ArithArgs{A: 1, B: 2}, nil, 20*time.Millisecond)
	if took := time.Since(start); !errors.Is(err, ErrTimeout) || took > 100*time.Millisecond {
		t.Fatalf("a 20ms call behind a held one returned %v after %v, want ErrTimeout within 100ms", err, took)
	}
	release()
	if err := <-held; err != nil {
		t.Fatalf("held call: %v", err)
	}
}

// TestCallAllocCeiling pins what one call allocates over net.Pipe, client
// and server together, the call BenchmarkCallPipe times.
func TestCallAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c, _ := pipePair(t)
	var out EchoMsg
	allocs := testing.AllocsPerRun(500, func() {
		if err := c.Call("Echo.Echo", &EchoMsg{S: "x"}, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("a call allocates %.1f times, want at most 12", allocs)
	}
}

func TestClientClose(t *testing.T) {
	c, _ := pipePair(t)
	c.Close()
	if err := c.Call("Arith.Do", &ArithArgs{}, nil); err == nil {
		t.Error("call on closed client succeeded")
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	c, srv := pipePair(t)
	done := make(chan error, 1)
	go func() {
		var r ArithReply
		done <- c.Call("Arith.Slow", &ArithArgs{A: 2000}, &r)
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded past server close")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call hung after server close")
	}
}

func TestRegisterRejectsBareStruct(t *testing.T) {
	srv := NewServer()
	type empty struct{}
	if err := srv.Register("X", empty{}); err == nil {
		t.Error("registered a service with no methods")
	}
	if err := srv.Register("A", Arith{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("A", Arith{}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestNilReplyDiscards(t *testing.T) {
	c, _ := pipePair(t)
	if err := c.Call("Arith.Do", &ArithArgs{A: 1, B: 2}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCallPipe(b *testing.B) {
	srv := NewServer()
	srv.Register("Echo", Echo{})
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	c := NewClient(cConn)
	defer c.Close()
	defer srv.Close()
	benchCalls(b, c)
}

// BenchmarkCallTCP is BenchmarkCallPipe over loopback TCP, the transport
// nsd serves: unlike net.Pipe it goes through the netpoller, so it shows
// what waking a goroutine per call costs.
func BenchmarkCallTCP(b *testing.B) {
	srv := NewServer()
	srv.Register("Echo", Echo{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	benchCalls(b, c)
}

// benchCalls times b.N sequential echo calls on c.
func benchCalls(b *testing.B, c *Client) {
	b.ReportAllocs()
	b.ResetTimer()
	var out EchoMsg
	for i := 0; i < b.N; i++ {
		if err := c.Call("Echo.Echo", &EchoMsg{S: "x"}, &out); err != nil {
			b.Fatal(err)
		}
	}
}
