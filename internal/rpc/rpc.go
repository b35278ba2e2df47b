// Package rpc is a from-scratch remote procedure call facility in the
// mould of the paper's §6: clients interact with the name server "through a
// general purpose remote procedure call mechanism" whose marshalling
// converts "between strongly typed data structures and bit representations
// suitable for transport across the network" — here, the pickle package
// plays both roles, so (as the paper boasts) there is no manually written
// marshalling code anywhere.
//
// Exposed services are ordinary Go values. Every exported method of the
// form
//
//	func (s *Svc) Method(arg *A, reply *R) error
//
// becomes callable as "SvcName.Method". Argument and reply types must be
// registered with pickle.Register — the analogue of the paper's
// automatically generated stub modules, derived here from reflection
// instead of a stub compiler.
//
// The wire protocol is one uvarint-length-prefixed pickled message per
// request or response, multiplexed by call ID, so one connection carries
// any number of concurrent calls, served by long-lived handler goroutines of
// the connection (see ServeConn); frame buffers are reused, not allocated.
//
// The network is allowed to fail. A Client built over a dial function
// (NewClientDialer, Dial, DialRetry) reconnects automatically: when the
// connection dies, every call in flight on it fails with ErrDisconnected
// and the next call dials afresh. CallRetry layers at-least-once delivery
// on top — exponential backoff with jitter under a total deadline budget —
// and stamps every attempt with the same idempotency token, which the
// server uses to deduplicate re-executions and replay the original reply,
// making retries safe even for non-idempotent methods. This is the
// transport the paper's §7 replication story assumes: an update is acked
// after one replica commits it, so the path to that replica must survive
// drops, delays and partitions rather than wedge on the first dead socket.
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/pickle"
)

// maxMessage bounds a single RPC message.
const maxMessage = 64 << 20

// frameChunk is the allocation step for incoming frames: a frame's buffer
// grows as bytes actually arrive, so a garbage header claiming maxMessage
// cannot force a 64 MiB allocation for a 3-byte connection.
const frameChunk = 64 << 10

// ServerError is an error returned by the remote side.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// ErrShutdown is returned by calls on a closed client.
var ErrShutdown = errors.New("rpc: client is shut down")

// ErrTimeout is returned by CallTimeout when the deadline passes.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrDisconnected marks a call that failed because the connection died (or
// could not be established). The request may or may not have executed on
// the server; CallRetry treats it as retryable, relying on idempotency
// tokens to keep re-execution safe.
var ErrDisconnected = errors.New("rpc: connection lost")

// Retryable reports whether err is a transport-level failure worth
// retrying: the connection died or the call timed out. Server-side errors
// (ServerError) mean the request executed and are final, and ErrShutdown
// means the caller closed the client.
func Retryable(err error) bool {
	return errors.Is(err, ErrDisconnected) || errors.Is(err, ErrTimeout)
}

// request and response are the two wire message types. Client and Token,
// when set, identify the call across retried attempts: the server caches
// the response per (Client, Token) and replays it for duplicates instead of
// re-executing the method.
type request struct {
	ID     uint64
	Method string
	Arg    any
	Client string
	Token  uint64
}

type response struct {
	ID     uint64
	Err    string
	Result any
}

func init() {
	pickle.Register(&request{})
	pickle.Register(&response{})
}

// writeMessage frames and writes one pickled message. Header and payload go
// out in a single Write, so the transport never observes a torn frame
// boundary between them.
//
// When sc carries a trace, the frame is prefixed with the trace-context
// extension: a zero length uvarint (the sentinel — a real message is never
// empty, since a pickled struct always encodes to at least one byte),
// then the trace and span IDs as uvarints, then the ordinary length-
// prefixed payload. Untraced frames are byte-identical to the pre-
// extension protocol, so old and new endpoints interoperate as long as
// only new ones emit traces. The header goes into frameRoom bytes left free
// in front of the payload, right-aligned against it.
func writeMessage(w io.Writer, wmu *sync.Mutex, v any, sc obs.SpanContext) error {
	bp := framePool.Get().(*[]byte)
	buf, err := pickle.AppendMarshal((*bp)[:frameRoom], v)
	if err == nil {
		var hdr [frameRoom]byte
		n := 0
		if sc.Trace != 0 {
			hdr[n] = 0 // extension sentinel: zero-length frame
			n++
			n += binary.PutUvarint(hdr[n:], uint64(sc.Trace))
			n += binary.PutUvarint(hdr[n:], uint64(sc.Span))
		}
		n += binary.PutUvarint(hdr[n:], uint64(len(buf)-frameRoom))
		start := frameRoom - n
		copy(buf[start:], hdr[:n])
		wmu.Lock()
		_, err = w.Write(buf[start:])
		wmu.Unlock()
	}
	if cap(buf) <= frameChunk {
		*bp = buf
		framePool.Put(bp)
	}
	return err
}

// frameRoom fits the longest header: sentinel, trace and span IDs, length.
const frameRoom = 1 + 3*binary.MaxVarintLen64

// framePool holds writeMessage's buffers; one grown past frameChunk by a
// large message is dropped rather than pinned.
var framePool = sync.Pool{New: func() any { b := make([]byte, frameRoom, 512); return &b }}

// readFrame reads one frame into a fresh buffer.
func readFrame(r *bufio.Reader) ([]byte, obs.SpanContext, error) {
	return readFrameInto(nil, r)
}

// readFrameInto reads one length-prefixed frame payload into buf's storage
// and returns it with its trace context (zero when the frame carried none).
// Truncated, garbage or oversized frames error; the buffer grows a frameChunk
// at most at a time as data arrives, bounding what a hostile header costs.
func readFrameInto(buf []byte, r *bufio.Reader) ([]byte, obs.SpanContext, error) {
	var sc obs.SpanContext
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, sc, err
	}
	if n == 0 {
		// Trace-context extension: trace ID, span ID, then the real length.
		var ext [3]uint64
		for i := range ext {
			if ext[i], err = binary.ReadUvarint(r); err != nil {
				return nil, sc, err
			}
		}
		sc, n = obs.SpanContext{Trace: obs.TraceID(ext[0]), Span: obs.SpanID(ext[1])}, ext[2]
		if n == 0 {
			return nil, sc, errors.New("rpc: malformed frame: empty message after trace extension")
		}
	}
	if n > maxMessage {
		return nil, sc, fmt.Errorf("rpc: message of %d bytes exceeds limit", n)
	}
	buf = buf[:0]
	for uint64(len(buf)) < n {
		start := len(buf)
		step := int(min(n-uint64(start), frameChunk))
		buf = slices.Grow(buf, step)[:start+step]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, sc, err
		}
	}
	return buf, sc, nil
}

// readMessage reads one framed message into ptr and returns its trace context.
func readMessage(r *bufio.Reader, ptr any) (obs.SpanContext, error) {
	return decodeFrame(new([]byte), r, ptr)
}

// decodeFrame is readMessage for a connection's reader, whose frames reuse
// *buf's storage; a buffer grown past frameChunk by one large frame is
// dropped rather than kept.
func decodeFrame(buf *[]byte, r *bufio.Reader, ptr any) (obs.SpanContext, error) {
	frame, sc, err := readFrameInto(*buf, r)
	if err != nil {
		return sc, err
	}
	if *buf = frame; cap(frame) > frameChunk {
		*buf = nil
	}
	return sc, pickle.Unmarshal(frame, ptr)
}

// --- server ---

// A Server dispatches calls to registered services.
type Server struct {
	mu       sync.RWMutex
	services map[string]*service

	dedupe dedupe

	// obs and tracer are set by Instrument before serving; nil means
	// uninstrumented (every metric method tolerates nil).
	obs        *obs.Registry
	tracer     obs.Tracer
	openConns  *obs.Gauge
	requests   *obs.Counter
	errors     *obs.Counter
	dedupeHits *obs.Counter
	unknown    serviceMethod // metrics only: what lookup returns for a bad name

	lmu       sync.Mutex
	listeners []net.Listener
	conns     map[io.Closer]bool
	closed    bool
	started   atomic.Int64 // handler goroutines ever started, for tests
}

// Instrument wires the server's metrics into reg — rpc_requests, rpc_errors,
// rpc_open_conns, rpc_dedupe_hits, and per-method rpc_calls_<Service.Method>
// / rpc_errors_<Service.Method> counters with rpc_latency_ns_<Service.Method>
// histograms — and emits an "rpc.call" event per dispatch to tr. Call before
// Serve, and before or after Register.
func (s *Server) Instrument(reg *obs.Registry, tr obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = reg
	s.tracer = tr
	s.openConns = reg.Gauge("rpc_open_conns")
	s.requests = reg.Counter("rpc_requests")
	s.errors = reg.Counter("rpc_errors")
	s.dedupeHits = reg.Counter("rpc_dedupe_hits")
	s.unknown.metrics = bindMetrics(reg, "unknown")
	for name, svc := range s.services {
		svc.bindMetrics(reg, name)
	}
}

type service struct {
	rcvr    reflect.Value
	methods map[string]*serviceMethod
}

// serviceMethod is one dispatchable method; traced methods take the
// caller's span context as a third argument.
type serviceMethod struct {
	m       reflect.Method
	traced  bool
	metrics methodMetrics
}

// methodMetrics are one method's series, resolved once rather than looked
// up by name per call; nil, and so discarding, until Instrument.
type methodMetrics struct {
	calls, errors *obs.Counter
	latency       *obs.Histogram
}

func bindMetrics(reg *obs.Registry, label string) methodMetrics {
	return methodMetrics{reg.Counter("rpc_calls_" + label), reg.Counter("rpc_errors_" + label), reg.Histogram("rpc_latency_ns_" + label)}
}

func (svc *service) bindMetrics(reg *obs.Registry, name string) {
	for mName, sm := range svc.methods {
		sm.metrics = bindMetrics(reg, name+"."+mName)
	}
}

// NewServer returns an empty Server.
func NewServer() *Server {
	return &Server{
		services: make(map[string]*service),
		conns:    make(map[io.Closer]bool),
		dedupe:   dedupe{clients: make(map[string]*clientDedupe)},
	}
}

var (
	errType = reflect.TypeOf((*error)(nil)).Elem()
	scType  = reflect.TypeOf(obs.SpanContext{})
)

// Register exposes rcvr's suitable methods under the given service name. A
// suitable method is exported, takes two pointer arguments (args and
// reply), and returns error; it may additionally take an obs.SpanContext
// as a third argument, in which case dispatch hands it the caller's trace
// context (zero for untraced calls):
//
//	func (s *Svc) Method(arg *A, reply *R) error
//	func (s *Svc) Method(arg *A, reply *R, sc obs.SpanContext) error
func (s *Server) Register(name string, rcvr any) error {
	rv := reflect.ValueOf(rcvr)
	rt := rv.Type()
	svc := &service{rcvr: rv, methods: make(map[string]*serviceMethod)}
	for i := 0; i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		mt := m.Type
		if !m.IsExported() || mt.NumOut() != 1 || mt.Out(0) != errType {
			continue
		}
		switch mt.NumIn() {
		case 3:
		case 4:
			if mt.In(3) != scType {
				continue
			}
		default:
			continue
		}
		if mt.In(1).Kind() != reflect.Pointer || mt.In(2).Kind() != reflect.Pointer {
			continue
		}
		svc.methods[m.Name] = &serviceMethod{m: m, traced: mt.NumIn() == 4}
	}
	if len(svc.methods) == 0 {
		return fmt.Errorf("rpc: %T exposes no methods of the form Method(arg *A, reply *R) error", rcvr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.services[name]; dup {
		return fmt.Errorf("rpc: service %q already registered", name)
	}
	svc.bindMetrics(s.obs, name)
	s.services[name] = svc
	return nil
}

// Serve accepts connections from l until it is closed, serving each
// connection on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.lmu.Lock()
	if s.closed {
		s.lmu.Unlock()
		l.Close()
		return errors.New("rpc: server closed")
	}
	s.listeners = append(s.listeners, l)
	s.lmu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.lmu.Lock()
			closed := s.closed
			s.lmu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn serves a single connection until it fails or the server closes.
// Requests on one connection are handled concurrently, as the calls they
// carry may interleave enquiries and updates: each goes to an idle handler
// goroutine of the connection, or to a new one if none is idle. Handlers
// live as long as the connection, so they number its peak concurrency.
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	s.lmu.Lock()
	if s.closed {
		s.lmu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = true
	s.lmu.Unlock()
	s.openConns.Inc()
	defer func() {
		s.openConns.Dec()
		s.lmu.Lock()
		delete(s.conns, conn)
		s.lmu.Unlock()
		conn.Close()
	}()

	type inbound struct {
		req request
		sc  obs.SpanContext
	}
	var (
		wmu      sync.Mutex
		handlers sync.WaitGroup
		work     = make(chan inbound)
		r        = bufio.NewReader(conn)
		buf      []byte
		in       inbound
		err      error
	)
	defer handlers.Wait()
	defer close(work)
	handle := func(job inbound) {
		defer handlers.Done()
		for ok := true; ok; job, ok = <-work {
			resp := s.serveRequest(&job.req, job.sc)
			_ = writeMessage(conn, &wmu, resp, obs.SpanContext{})
		}
	}
	for {
		in.req = request{}
		if in.sc, err = decodeFrame(&buf, r, &in.req); err != nil {
			return
		}
		select {
		case work <- in:
		default:
			handlers.Add(1)
			s.started.Add(1)
			go handle(in)
		}
	}
}

// serveRequest dispatches one request, deduplicating retried attempts: a
// request carrying an idempotency token executes at most once while the
// token is remembered, and duplicates replay the cached response.
func (s *Server) serveRequest(req *request, sc obs.SpanContext) *response {
	if req.Token == 0 || req.Client == "" {
		return s.dispatch(req, sc)
	}
	for {
		cached, inflight := s.dedupe.begin(req.Client, req.Token)
		if cached != nil {
			s.dedupeHits.Inc()
			r := *cached
			r.ID = req.ID
			return &r
		}
		if inflight == nil {
			break // this attempt is the executor
		}
		// The original attempt is still executing (its response probably
		// died with the old connection); wait for it rather than running
		// the method twice concurrently.
		<-inflight
	}
	resp := s.dispatch(req, sc)
	s.dedupe.finish(req.Client, req.Token, resp)
	return resp
}

// dispatch has a named result so the deferred panic handler can still
// deliver a response after recovering. sc is the caller's trace context;
// when the server has a tracer, the call becomes an "rpc.call" span —
// parented to sc when the request carried a trace, or the root of a fresh
// one when it did not, which is how every update entering through the RPC
// boundary gets stamped with a trace — and traced methods receive the
// span's context so their own child spans chain under the call.
func (s *Server) dispatch(req *request, sc obs.SpanContext) (resp *response) {
	resp = &response{ID: req.ID}
	var span obs.Span
	if s.tracer != nil {
		if sc.Valid() {
			span = obs.StartSpan(s.tracer, sc, "rpc.call")
		} else {
			span = obs.StartRoot(s.tracer, "rpc.call")
		}
	}
	methodCtx := span.Context()
	svc, sm, lookupErr := s.lookup(req.Method)
	if s.obs != nil || s.tracer != nil {
		s.requests.Inc()
		sm.metrics.calls.Inc()
		start := time.Now()
		defer func() {
			dur := time.Since(start)
			sm.metrics.latency.ObserveDuration(dur)
			var err error
			if resp.Err != "" {
				err = ServerError(resp.Err)
				s.errors.Inc()
				sm.metrics.errors.Inc()
			}
			if span.Active() {
				span.End(err, obs.A("method", req.Method))
			} else {
				obs.Emit(s.tracer, obs.Event{Name: "rpc.call", Dur: dur, Err: err, Attrs: []obs.Attr{obs.A("method", req.Method)}})
			}
		}()
	}
	if lookupErr != "" {
		resp.Err = lookupErr
		return resp
	}
	m := sm.m

	argType := m.Type.In(1)   // *A
	replyType := m.Type.In(2) // *R
	argv := reflect.ValueOf(req.Arg)
	switch {
	case req.Arg == nil:
		argv = reflect.New(argType.Elem())
	case argv.Type() == argType:
	case argv.Type() == argType.Elem():
		argv = reflect.New(argType.Elem())
		argv.Elem().Set(reflect.ValueOf(req.Arg))
	default:
		resp.Err = fmt.Sprintf("rpc: %s wants %v, got %T", req.Method, argType, req.Arg)
		return resp
	}
	replyv := reflect.New(replyType.Elem())

	defer func() {
		if p := recover(); p != nil {
			resp.Err = fmt.Sprintf("rpc: %s panicked: %v", req.Method, p)
			resp.Result = nil
		}
	}()
	in := []reflect.Value{svc.rcvr, argv, replyv}
	if sm.traced {
		in = append(in, reflect.ValueOf(methodCtx))
	}
	out := m.Func.Call(in)
	if ierr := out[0].Interface(); ierr != nil {
		resp.Err = ierr.(error).Error()
		return resp
	}
	resp.Result = replyv.Interface()
	return resp
}

// lookup resolves "Service.Method", or says why it cannot and returns
// s.unknown, so that garbage names share one set of series and a client
// sending them cannot grow the registry.
func (s *Server) lookup(name string) (*service, *serviceMethod, string) {
	svcName, mName, ok := strings.Cut(name, ".")
	if !ok || svcName == "" || mName == "" {
		return nil, &s.unknown, fmt.Sprintf("rpc: malformed method %q", name)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	svc := s.services[svcName]
	if svc == nil {
		return nil, &s.unknown, fmt.Sprintf("rpc: unknown service %q", svcName)
	}
	sm := svc.methods[mName]
	if sm == nil {
		return nil, &s.unknown, fmt.Sprintf("rpc: service %q has no method %q", svcName, mName)
	}
	return svc, sm, ""
}

// Close stops all listeners and open connections.
func (s *Server) Close() {
	s.lmu.Lock()
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	var conns []io.Closer
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.lmu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// --- idempotency dedupe ---

// dedupePerClient bounds the remembered responses per client, and
// dedupeClients the number of clients tracked; both evict FIFO. The bound
// is a window, not a guarantee: a retry arriving after its token was
// evicted re-executes, which is why callers of CallRetry should still
// prefer naturally idempotent methods.
const (
	dedupePerClient = 1024
	dedupeClients   = 128
)

// dedupe is the server's per-client idempotency-token cache.
type dedupe struct {
	mu      sync.Mutex
	clients map[string]*clientDedupe
	order   []string // FIFO client eviction
}

type clientDedupe struct {
	done     map[uint64]*response
	inflight map[uint64]chan struct{}
	order    []uint64 // FIFO token eviction
}

// begin resolves one attempt: a cached response (already executed), an
// in-flight channel to wait on (executing right now), or (nil, nil)
// meaning the caller must execute and finish.
func (d *dedupe) begin(client string, token uint64) (*response, chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cd := d.clients[client]
	if cd == nil {
		if len(d.clients) >= dedupeClients {
			oldest := d.order[0]
			d.order = d.order[1:]
			if old := d.clients[oldest]; old != nil {
				// Unblock anyone waiting on the evicted client's
				// in-flight tokens; they will re-begin and re-execute.
				for _, ch := range old.inflight {
					close(ch)
				}
			}
			delete(d.clients, oldest)
		}
		cd = &clientDedupe{done: make(map[uint64]*response), inflight: make(map[uint64]chan struct{})}
		d.clients[client] = cd
		d.order = append(d.order, client)
	}
	if r, ok := cd.done[token]; ok {
		return r, nil
	}
	if ch, ok := cd.inflight[token]; ok {
		return nil, ch
	}
	cd.inflight[token] = make(chan struct{})
	return nil, nil
}

// finish records the executor's response and wakes duplicate waiters.
func (d *dedupe) finish(client string, token uint64, resp *response) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cd := d.clients[client]
	if cd == nil {
		return // evicted mid-execution; duplicates will re-execute
	}
	if ch, ok := cd.inflight[token]; ok {
		close(ch)
		delete(cd.inflight, token)
	}
	cd.done[token] = resp
	cd.order = append(cd.order, token)
	if len(cd.order) > dedupePerClient {
		evict := cd.order[0]
		cd.order = cd.order[1:]
		delete(cd.done, evict)
	}
}

// --- client ---

// A Client issues calls over one connection at a time; it is safe for
// concurrent use and multiplexes any number of outstanding calls. A client
// built with a dial function reconnects lazily: when the connection dies,
// in-flight calls fail with ErrDisconnected and the next call redials.
type Client struct {
	// SimulatedRTT, when set, delays every call by the given round-trip
	// time — experiment E11's stand-in for the paper's 8 ms network.
	SimulatedRTT time.Duration

	dial func() (io.ReadWriteCloser, error)
	id   string // identity for idempotency tokens

	// tracer, when set via SetTracer, records an "rpc.attempt" span per
	// traced call attempt (so retries and reconnects are visible in the
	// originating trace).
	tracer obs.Tracer

	// metrics are set by Instrument; all are nil-safe.
	retries    *obs.Counter
	reconnects *obs.Counter
	timeouts   *obs.Counter
	inflight   *obs.Gauge

	nextToken atomic.Uint64

	rmu sync.Mutex
	rng *rand.Rand // backoff jitter

	mu       sync.Mutex
	cur      *clientConn
	everConn bool
	nextID   uint64
	pending  map[uint64]*pendingCall
	err      error // sticky death of a fixed-conn client
	closed   bool
}

// clientConn is one live connection with its write lock.
type clientConn struct {
	rwc io.ReadWriteCloser
	wmu sync.Mutex
}

// pendingCall is one outstanding request awaiting its response.
type pendingCall struct {
	cc *clientConn
	ch chan callResult
}

// callResult is a response or a transport failure.
type callResult struct {
	resp response
	err  error
}

var clientSeq atomic.Uint64

func newClient(dial func() (io.ReadWriteCloser, error)) *Client {
	seq := clientSeq.Add(1)
	return &Client{
		dial:    dial,
		id:      fmt.Sprintf("c%d.%d", os.Getpid(), seq),
		rng:     rand.New(rand.NewSource(int64(seq))),
		pending: make(map[uint64]*pendingCall),
	}
}

// NewClient returns a Client bound to one fixed conn; when it dies the
// client is dead (use NewClientDialer for reconnection).
func NewClient(conn io.ReadWriteCloser) *Client {
	c := newClient(nil)
	cc := &clientConn{rwc: conn}
	c.cur = cc
	c.everConn = true
	go c.readLoop(cc)
	return c
}

// NewClientDialer returns a Client that connects lazily via dial and
// reconnects (on the next call) whenever the connection dies. Construction
// never fails; a dead endpoint surfaces as ErrDisconnected from calls.
func NewClientDialer(dial func() (io.ReadWriteCloser, error)) *Client {
	return newClient(dial)
}

// Dial connects a Client to a TCP server, verifying the endpoint once; the
// returned client redials on every subsequent connection failure.
func Dial(addr string) (*Client, error) {
	c := DialRetry(addr)
	c.mu.Lock()
	_, err := c.ensureConnLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// DialRetry returns a reconnecting TCP client for addr without dialing yet:
// the first call connects, and every connection failure after that redials.
func DialRetry(addr string) *Client {
	return NewClientDialer(func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", addr)
	})
}

// Instrument wires the client's resilience metrics into reg: rpc_retries,
// rpc_reconnects, rpc_timeouts and the rpc_inflight gauge. Clients sharing
// a registry share the metric objects, so the counters aggregate.
func (c *Client) Instrument(reg *obs.Registry) {
	c.retries = reg.Counter("rpc_retries")
	c.reconnects = reg.Counter("rpc_reconnects")
	c.timeouts = reg.Counter("rpc_timeouts")
	c.inflight = reg.Gauge("rpc_inflight")
}

// SetTracer attaches a tracer to the client: traced calls (CallTraced,
// CallRetryTraced) record an "rpc.attempt" span per attempt. Call before
// the client is in use.
func (c *Client) SetTracer(t obs.Tracer) { c.tracer = t }

// ensureConnLocked returns the live connection, dialing one if needed.
// Called with c.mu held; a slow dial therefore serializes callers, which is
// what we want — one reconnection attempt at a time.
func (c *Client) ensureConnLocked() (*clientConn, error) {
	if c.closed {
		return nil, ErrShutdown
	}
	if c.cur != nil {
		return c.cur, nil
	}
	if c.dial == nil {
		if c.err != nil {
			return nil, c.err
		}
		return nil, ErrShutdown
	}
	rwc, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("%w: dial: %v", ErrDisconnected, err)
	}
	cc := &clientConn{rwc: rwc}
	c.cur = cc
	if c.everConn {
		c.reconnects.Inc()
	}
	c.everConn = true
	go c.readLoop(cc)
	return cc, nil
}

func (c *Client) readLoop(cc *clientConn) {
	r := bufio.NewReader(cc.rwc)
	var buf []byte
	var resp response
	for {
		resp = response{}
		if _, err := decodeFrame(&buf, r, &resp); err != nil {
			c.connFailed(cc, err)
			return
		}
		c.mu.Lock()
		pc := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if pc != nil {
			pc.ch <- callResult{resp: resp}
		}
		// A nil pc is a response whose caller stopped waiting (timeout);
		// it is discarded, not leaked.
	}
}

// connFailed retires a dead connection: calls in flight on it fail with
// ErrDisconnected, the conn is closed (unwedging any writer blocked on a
// black-holed transport), and — for fixed-conn clients — the death is
// sticky.
func (c *Client) connFailed(cc *clientConn, cause error) {
	err := fmt.Errorf("%w: %v", ErrDisconnected, cause)
	c.mu.Lock()
	if c.cur == cc {
		c.cur = nil
		if c.dial == nil && c.err == nil {
			c.err = err
		}
	}
	var failed []*pendingCall
	for id, pc := range c.pending {
		if pc.cc == cc {
			delete(c.pending, id)
			failed = append(failed, pc)
		}
	}
	c.mu.Unlock()
	cc.rwc.Close()
	for _, pc := range failed {
		pc.ch <- callResult{err: err}
	}
}

func (c *Client) dropPending(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Call invokes "Service.Method" with arg, storing the result into reply
// (a non-nil pointer, or nil to discard). It waits as long as the
// connection lives; use CallTimeout or CallRetry to bound it.
func (c *Client) Call(method string, arg any, reply any) error {
	return c.call(method, arg, reply, 0, 0, obs.SpanContext{})
}

// CallTraced is Call with a trace context: the request's frame carries sc
// across the wire, so the server-side spans land in the caller's trace.
func (c *Client) CallTraced(sc obs.SpanContext, method string, arg, reply any) error {
	return c.call(method, arg, reply, 0, 0, sc)
}

// CallTimeout is Call with a deadline: if the response does not arrive in
// time the call fails with ErrTimeout. The request is not cancelled on the
// server — as in the paper's RPC, the caller just stops waiting — but the
// pending-call entry is removed, so the late response is discarded rather
// than leaked.
func (c *Client) CallTimeout(method string, arg, reply any, d time.Duration) error {
	return c.call(method, arg, reply, 0, d, obs.SpanContext{})
}

// call is the shared call path: send, then wait with an optional deadline.
// token, when nonzero, is the idempotency token stamped on the request; sc,
// when valid, rides the frame header to the server.
func (c *Client) call(method string, arg, reply any, token uint64, d time.Duration, sc obs.SpanContext) error {
	if c.SimulatedRTT > 0 {
		time.Sleep(c.SimulatedRTT)
	}
	c.inflight.Inc()
	defer c.inflight.Dec()

	c.mu.Lock()
	cc, err := c.ensureConnLocked()
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	pc := &pendingCall{cc: cc, ch: make(chan callResult, 1)}
	c.pending[id] = pc
	c.mu.Unlock()

	req := &request{ID: id, Method: method, Arg: arg}
	if token != 0 {
		req.Client = c.id
		req.Token = token
	}
	if err := writeMessage(cc.rwc, &cc.wmu, req, sc); err != nil {
		c.dropPending(id)
		// A failed write leaves the stream in an unknown framing state;
		// the connection is done.
		c.connFailed(cc, err)
		return fmt.Errorf("%w: write: %v", ErrDisconnected, err)
	}

	var res callResult
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case res = <-pc.ch:
		case <-timer.C:
			c.dropPending(id)
			c.timeouts.Inc()
			return ErrTimeout
		}
	} else {
		res = <-pc.ch
	}
	if res.err != nil {
		return res.err
	}
	resp := res.resp
	if resp.Err != "" {
		return ServerError(resp.Err)
	}
	if reply == nil || resp.Result == nil {
		return nil
	}
	rv := reflect.ValueOf(reply)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("rpc: reply must be a non-nil pointer, got %T", reply)
	}
	res2 := reflect.ValueOf(resp.Result)
	switch {
	case res2.Type() == rv.Type():
		rv.Elem().Set(res2.Elem())
	case res2.Type() == rv.Type().Elem():
		rv.Elem().Set(res2)
	default:
		return fmt.Errorf("rpc: reply type %T does not match result %T", reply, resp.Result)
	}
	return nil
}

// RetryPolicy bounds CallRetry. The zero value picks the defaults noted on
// each field.
type RetryPolicy struct {
	// MaxAttempts caps the number of attempts; 0 means bounded only by
	// Budget.
	MaxAttempts int
	// Budget is the total time the call may consume across attempts and
	// backoffs; 0 means 2s.
	Budget time.Duration
	// BaseDelay is the first backoff; it doubles per attempt. 0 means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means 100ms.
	MaxDelay time.Duration
	// PerTry bounds each individual attempt; 0 means the remaining budget,
	// so a black-holed connection consumes the whole budget in one
	// attempt. Set it when the transport can wedge silently.
	PerTry time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Budget <= 0 {
		p.Budget = 2 * time.Second
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// CallRetry is Call with at-least-once delivery over a failing network:
// transport-level failures (ErrDisconnected, ErrTimeout) are retried with
// exponential backoff and jitter until the policy's budget or attempt cap
// runs out. Every attempt carries the same idempotency token, so a server
// that executed a previous attempt replays its response instead of
// re-executing. Server-side errors are returned immediately — the request
// executed, and retrying would not change the answer.
func (c *Client) CallRetry(method string, arg, reply any, p RetryPolicy) error {
	return c.CallRetryTraced(obs.SpanContext{}, method, arg, reply, p)
}

// CallRetryTraced is CallRetry with a trace context: every attempt becomes
// an "rpc.attempt" span under sc (when the client has a tracer), and the
// attempt's own span context rides the wire — so the trace shows each
// retry and reconnect individually, with the server-side "rpc.call" span
// parented under the attempt that actually reached it.
func (c *Client) CallRetryTraced(sc obs.SpanContext, method string, arg, reply any, p RetryPolicy) error {
	p = p.withDefaults()
	deadline := time.Now().Add(p.Budget)
	token := c.nextToken.Add(1)
	var err error
	for attempt := 1; ; attempt++ {
		d := time.Until(deadline)
		if d <= 0 {
			if err == nil {
				err = ErrTimeout
			}
			return fmt.Errorf("rpc: %s: retry budget exhausted after %d attempts: %w", method, attempt-1, err)
		}
		if p.PerTry > 0 && p.PerTry < d {
			d = p.PerTry
		}
		wire := sc
		aspan := obs.StartSpan(c.tracer, sc, "rpc.attempt")
		if aspan.Active() {
			wire = aspan.Context()
		}
		err = c.call(method, arg, reply, token, d, wire)
		if aspan.Active() {
			aspan.End(err, obs.A("method", method), obs.A("attempt", attempt))
		}
		if err == nil || !Retryable(err) {
			return err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return fmt.Errorf("rpc: %s: failed after %d attempts: %w", method, attempt, err)
		}
		backoff := p.BaseDelay << (attempt - 1)
		if backoff <= 0 || backoff > p.MaxDelay {
			backoff = p.MaxDelay
		}
		// Jitter in [backoff/2, backoff]: desynchronizes retry storms
		// without ever shrinking the wait to zero.
		c.rmu.Lock()
		backoff = backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
		c.rmu.Unlock()
		if time.Now().Add(backoff).After(deadline) {
			return fmt.Errorf("rpc: %s: retry budget exhausted after %d attempts: %w", method, attempt, err)
		}
		c.retries.Inc()
		time.Sleep(backoff)
	}
}

// PendingCalls reports the number of in-flight requests in the pending map
// (for tests and debugging: a stuck entry here is a leak).
func (c *Client) PendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Close shuts the client down; outstanding calls fail with ErrShutdown and
// no reconnection happens.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.cur
	c.cur = nil
	pending := c.pending
	c.pending = make(map[uint64]*pendingCall)
	c.mu.Unlock()
	var err error
	if cc != nil {
		err = cc.rwc.Close()
	}
	for _, pc := range pending {
		pc.ch <- callResult{err: ErrShutdown}
	}
	return err
}
