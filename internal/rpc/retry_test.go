package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/netsim"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
)

// CountSvc counts executions so tests can observe at-most-once semantics.
type CountSvc struct {
	mu    sync.Mutex
	calls map[string]int
}

type CountArgs struct{ Key string }
type CountReply struct{ N int }

func init() {
	pickle.Register(&CountArgs{})
	pickle.Register(&CountReply{})
}

func (s *CountSvc) Bump(arg *CountArgs, reply *CountReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.calls == nil {
		s.calls = make(map[string]int)
	}
	s.calls[arg.Key]++
	reply.N = s.calls[arg.Key]
	return nil
}

func (s *CountSvc) count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[key]
}

// newCountServer returns a server exposing CountSvc as "Count".
func newCountServer(t *testing.T) (*Server, *CountSvc) {
	t.Helper()
	srv := NewServer()
	svc := &CountSvc{}
	if err := srv.Register("Count", svc); err != nil {
		t.Fatal(err)
	}
	return srv, svc
}

// TestDialerReconnect kills the live connection out from under the client
// and checks that the next call transparently redials.
func TestDialerReconnect(t *testing.T) {
	srv, _ := newCountServer(t)
	var mu sync.Mutex
	var serverEnd net.Conn
	dial := func() (io.ReadWriteCloser, error) {
		cli, s := net.Pipe()
		mu.Lock()
		serverEnd = s
		mu.Unlock()
		go srv.ServeConn(s)
		return cli, nil
	}
	c := NewClientDialer(dial)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	defer c.Close()

	var reply CountReply
	if err := c.Call("Count.Bump", &CountArgs{Key: "a"}, &reply); err != nil {
		t.Fatal(err)
	}
	// Sever the connection server-side.
	mu.Lock()
	serverEnd.Close()
	mu.Unlock()
	// The next call finds the connection dead when it writes; retry redials.
	if err := c.CallRetry(obs.SpanContext{}, "Count.Bump", &CountArgs{Key: "a"}, &reply, RetryPolicy{}); err != nil {
		t.Fatalf("call after conn death: %v", err)
	}
	if reply.N != 2 {
		t.Fatalf("reply.N = %d, want 2", reply.N)
	}
	if reg.Counter("rpc_reconnects").Value() == 0 {
		t.Error("rpc_reconnects not counted")
	}
}

// TestCallRetryAbsorbsDialFailures makes the first dials fail and checks
// CallRetry keeps trying until one succeeds.
func TestCallRetryAbsorbsDialFailures(t *testing.T) {
	srv, _ := newCountServer(t)
	var attempts atomic.Int64
	dial := func() (io.ReadWriteCloser, error) {
		if attempts.Add(1) <= 3 {
			return nil, errors.New("connection refused")
		}
		cli, s := net.Pipe()
		go srv.ServeConn(s)
		return cli, nil
	}
	c := NewClientDialer(dial)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	defer c.Close()

	var reply CountReply
	err := c.CallRetry(obs.SpanContext{}, "Count.Bump", &CountArgs{Key: "k"}, &reply, RetryPolicy{BaseDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("dial attempts = %d, want 4", got)
	}
	if reg.Counter("rpc_retries").Value() < 3 {
		t.Errorf("rpc_retries = %d, want >= 3", reg.Counter("rpc_retries").Value())
	}
}

// TestCallRetryBudgetExhausted checks a permanently dead endpoint fails
// within the budget with a retryable-classified error.
func TestCallRetryBudgetExhausted(t *testing.T) {
	c := NewClientDialer(func() (io.ReadWriteCloser, error) {
		return nil, errors.New("down")
	})
	defer c.Close()
	start := time.Now()
	err := c.CallRetry(obs.SpanContext{}, "Count.Bump", &CountArgs{}, nil, RetryPolicy{Budget: 50 * time.Millisecond, BaseDelay: time.Millisecond})
	if err == nil {
		t.Fatal("call against dead endpoint succeeded")
	}
	if !Retryable(err) {
		t.Fatalf("exhaustion error not classified retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("budget of 50ms took %v", elapsed)
	}
}

// TestCallRetryStopsOnServerError checks that a server-side error is final:
// the method executed, so retrying must not re-execute it.
func TestCallRetryStopsOnServerError(t *testing.T) {
	srv := NewServer()
	svc := &errSvc{}
	if err := srv.Register("Err", svc); err != nil {
		t.Fatal(err)
	}
	cli, s := net.Pipe()
	go srv.ServeConn(s)
	c := NewClient(cli)
	defer c.Close()
	err := c.CallRetry(obs.SpanContext{}, "Err.Fail", &CountArgs{}, nil, RetryPolicy{})
	var se ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}
	if n := svc.calls.Load(); n != 1 {
		t.Fatalf("method executed %d times, want 1", n)
	}
}

type errSvc struct{ calls atomic.Int64 }

func (s *errSvc) Fail(arg *CountArgs, reply *CountReply) error {
	s.calls.Add(1)
	return errors.New("boom")
}

// TestTimeoutRemovesPending: a call whose method never answers times out,
// leaves no call in flight, and takes its connection with it, so the late
// reply is never read as another call's; the dialer client's next call
// succeeds on a fresh connection.
func TestTimeoutRemovesPending(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	if err := srv.Register("Slow", &slowSvc{block: block}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClientDialer(pipeDialer(srv))
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)

	err := c.CallTimeout("Slow.Wait", &CountArgs{}, nil, 10*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if n := reg.Gauge("rpc_inflight").Value(); n != 0 {
		t.Fatalf("rpc_inflight = %d after the timeout, want 0", n)
	}
	if n := reg.Counter("rpc_timeouts").Value(); n != 1 {
		t.Errorf("rpc_timeouts = %d, want 1", n)
	}
	// Release the slow method: its reply goes to a closed connection.
	close(block)
	var reply CountReply
	if err := c.CallTimeout("Slow.Quick", &CountArgs{}, &reply, time.Second); err != nil {
		t.Fatalf("call after the timeout: %v", err)
	}
	if n := reg.Counter("rpc_reconnects").Value(); n != 1 {
		t.Errorf("rpc_reconnects = %d, want 1", n)
	}
}

type slowSvc struct{ block chan struct{} }

func (s *slowSvc) Wait(arg *CountArgs, reply *CountReply) error {
	<-s.block
	return nil
}

func (s *slowSvc) Quick(arg *CountArgs, reply *CountReply) error { return nil }

// TestConnDeathFailsPending checks the other half of the audit: when the
// connection dies, the call on it and every call waiting for its turn fail
// promptly with ErrDisconnected instead of wedging forever.
func TestConnDeathFailsPending(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	defer close(block)
	if err := srv.Register("Slow", &slowSvc{block: block}); err != nil {
		t.Fatal(err)
	}
	cli, s := net.Pipe()
	go srv.ServeConn(s)
	c := NewClient(cli)
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)
	inflight := reg.Gauge("rpc_inflight")

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			errs <- c.Call("Slow.Wait", &CountArgs{}, nil)
		}()
	}
	// One call is on the connection and n-1 wait for their turn.
	waitFor(t, fmt.Sprintf("%d calls in flight", n), func() bool { return inflight.Value() == n })
	cli.Close()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrShutdown) {
			t.Fatalf("in-flight call after conn death: %v", err)
		}
	}
	if got := inflight.Value(); got != 0 {
		t.Fatalf("rpc_inflight = %d after conn death, want 0", got)
	}
}

// TestIdempotencyDedupe forces a retry whose first attempt executed but
// whose response was lost, and checks the server runs the method once and
// replays the cached response.
func TestIdempotencyDedupe(t *testing.T) {
	srv, svc := newCountServer(t)
	reg := obs.NewRegistry()
	srv.Instrument(reg, nil)

	// lossyConn drops the first response on the floor by closing the
	// client side after the request is written but before the response
	// arrives. Easier: use netsim's blackhole via one-way partition.
	nw := netsim.New(1, netsim.Options{})
	defer nw.Close()
	l, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	c := NewClientDialer(nw.Dialer("cli", "srv"))
	defer c.Close()

	// First, prove the path works.
	var reply CountReply
	if err := c.CallRetry(obs.SpanContext{}, "Count.Bump", &CountArgs{Key: "x"}, &reply, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	// Black-hole srv->cli: the request gets through and executes, but the
	// response vanishes; the per-try deadline fires, we heal, and the
	// retry must be deduplicated.
	nw.PartitionOneWay("srv", "cli")
	healed := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		nw.Heal("srv", "cli")
		close(healed)
	}()
	err = c.CallRetry(obs.SpanContext{}, "Count.Bump", &CountArgs{Key: "x"}, &reply, RetryPolicy{
		PerTry: 10 * time.Millisecond, Budget: 2 * time.Second, BaseDelay: 5 * time.Millisecond,
	})
	<-healed
	if err != nil {
		t.Fatalf("retry across lost response: %v", err)
	}
	if got := svc.count("x"); got != 2 {
		t.Fatalf("method executed %d times, want exactly 2 (1 initial + 1 deduped retry)", got)
	}
	if reply.N != 2 {
		t.Fatalf("replayed reply.N = %d, want 2", reply.N)
	}
	if reg.Counter("rpc_dedupe_hits").Value() == 0 {
		t.Error("rpc_dedupe_hits not counted")
	}
}

// TestDedupeEviction checks the per-client token cache is bounded and
// evicts FIFO without wedging.
func TestDedupeEviction(t *testing.T) {
	d := dedupe{clients: make(map[string]*clientDedupe)}
	for i := uint64(1); i <= dedupePerClient+10; i++ {
		cached, inflight := d.begin("c", i)
		if cached != nil || inflight != nil {
			t.Fatalf("token %d: unexpected cache state", i)
		}
		d.finish("c", i, &response{ID: i})
	}
	cd := d.clients["c"]
	if len(cd.done) != dedupePerClient {
		t.Fatalf("done cache holds %d, want %d", len(cd.done), dedupePerClient)
	}
	// The oldest tokens were evicted: a late retry re-executes.
	if cached, _ := d.begin("c", 1); cached != nil {
		t.Fatal("evicted token still cached")
	}
	// Client eviction unblocks in-flight waiters.
	for i := 0; i < dedupeClients+5; i++ {
		d.begin(fmt.Sprintf("cl%d", i), 1) // leaves token 1 in flight
	}
	if len(d.clients) > dedupeClients {
		t.Fatalf("%d clients tracked, want <= %d", len(d.clients), dedupeClients)
	}
}

// TestCallRetryOverHostileNetsim runs many sequential calls through a
// lossy, jittery netsim link and requires zero client-visible errors — the
// in-test version of the bench acceptance criterion.
func TestCallRetryOverHostileNetsim(t *testing.T) {
	srv, svc := newCountServer(t)
	nw := netsim.New(99, netsim.Options{Profile: netsim.Profile{
		DropProb:     0.05,
		DelayProb:    0.2,
		MaxDelay:     200 * time.Microsecond,
		DialFailProb: 0.1,
	}})
	defer nw.Close()
	l, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	c := NewClientDialer(nw.Dialer("cli", "srv"))
	reg := obs.NewRegistry()
	c.Instrument(reg)
	defer c.Close()

	const n = 300
	policy := RetryPolicy{Budget: 5 * time.Second, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond, PerTry: 250 * time.Millisecond}
	for i := 0; i < n; i++ {
		var reply CountReply
		if err := c.CallRetry(obs.SpanContext{}, "Count.Bump", &CountArgs{Key: "h"}, &reply, policy); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Every call executed exactly once despite drops and retries.
	if got := svc.count("h"); got != n {
		t.Fatalf("method executed %d times for %d calls", got, n)
	}
	if reg.Counter("rpc_retries").Value() == 0 {
		t.Error("hostile profile produced zero retries")
	}
}
