package main

import (
	"fmt"
	"sync"
	"time"

	"smalldb/internal/nameserver"
	"smalldb/internal/rpc"
)

// conn is one client's connections: the server under test, the calibration
// echo called after every op, and the durable echo called after every Set.
type conn struct {
	ns      *rpc.Client
	echo    *echoClient
	durable *echoClient
	null    *rpc.Client // the null RPC server; traced runs only
}

func (c *conn) close() {
	c.ns.Close()
	c.echo.close()
	c.durable.close()
	if c.null != nil {
		c.null.Close()
	}
}

// opTrace is the three timestamps of one traced op; it expands to a
// client.op span with an rpc.call and an echo.call child when written.
type opTrace struct {
	client     uint8
	kind       opKind
	t0, t1, t2 int64 // ns since the steady phase began
}

// clientRec is what one client goroutine brings back.
type clientRec struct {
	windows           []slice
	traces            []opTrace
	lastSets          []int // name indexes of the newest acknowledged Sets
	nullNs, nulls     int64 // calls to the null RPC server
	attempted, failed int64
	firstErr          error
}

func (r *clientRec) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// drive runs n ops on every client at once and waits for all of them: the
// closed loop. Each client follows every nsd call with one echo call.
func (b *bench) drive(salt uint64, n int, traced bool) []*clientRec {
	recs := make([]*clientRec, b.clients)
	var wg sync.WaitGroup
	base := time.Now()
	for c := 0; c < b.clients; c++ {
		recs[c] = &clientRec{windows: make([]slice, windowsPerRun)}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.clientLoop(c, newStream(b.d, b.wl.mix, c, b.clients, salt), n, traced, base, recs[c])
		}(c)
	}
	wg.Wait()
	return recs
}

func clampNs(d time.Duration) uint32 {
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

func (b *bench) clientLoop(c int, st *stream, n int, traced bool, base time.Time, rec *clientRec) {
	cn := b.conns[c]
	var (
		lookupArgs  nameserver.LookupArgs
		lookupReply nameserver.LookupReply
		listArgs    nameserver.ListArgs
		setArgs     nameserver.SetArgs
		setReply    nameserver.SetReply
	)
	for i := 0; i < n; i++ {
		o := st.next()
		w := &rec.windows[i*windowsPerRun/n]
		// Odd windows of a traced run record nothing, so the two halves of
		// one run give the tracing overhead.
		w.traced = traced && (i*windowsPerRun/n)%2 == 0
		rec.attempted++
		var err error
		t0 := time.Now()
		switch o.kind {
		case opLookup:
			floor := b.m.beginLookup(o.idx)
			lookupArgs.Name = b.d.names[o.idx]
			lookupReply.Value = ""
			err = cn.ns.CallTimeout("NS.Lookup", &lookupArgs, &lookupReply, callTimeout)
			d := time.Since(t0)
			if err == nil && !b.m.checkLookup(o.idx, floor, lookupReply.Value) {
				err = fmt.Errorf("Lookup(%s) = %q, not a value the model admits", lookupArgs.Name, lookupReply.Value)
			}
			w.lookup = append(w.lookup, clampNs(d))
		case opList:
			listArgs.Name = b.d.deptName(o.idx)
			var listReply nameserver.ListReply
			err = cn.ns.CallTimeout("NS.List", &listArgs, &listReply, callTimeout)
			d := time.Since(t0)
			if err == nil && !b.m.checkList(o.idx, listReply.Labels) {
				err = fmt.Errorf("List(%s) returned %d labels that are not the department's hosts", listArgs.Name, len(listReply.Labels))
			}
			w.list = append(w.list, clampNs(d))
		case opSet:
			setArgs.Name, setArgs.Value = b.d.names[o.idx], b.m.beginSet(o.idx)
			err = cn.ns.CallTimeout("NS.Set", &setArgs, &setReply, callTimeout)
			d := time.Since(t0)
			if err == nil {
				b.m.ackSet(o.idx)
				if len(rec.lastSets) == lastSetsKept {
					rec.lastSets = rec.lastSets[1:]
				}
				rec.lastSets = append(rec.lastSets, o.idx)
			}
			w.set = append(w.set, clampNs(d))
		}
		t1 := time.Now()
		if err != nil {
			rec.fail(err)
			if o.kind == opSet {
				// The model no longer knows what this name holds; nothing
				// after a failed Set can be checked, and the run has failed.
				return
			}
		}
		if err := cn.echo.call(); err != nil {
			rec.fail(fmt.Errorf("calibration echo: %w", err))
			return
		}
		t2 := time.Now()
		w.echo = append(w.echo, clampNs(t2.Sub(t1)))
		if o.kind == opSet {
			if err := cn.durable.call(); err != nil {
				rec.fail(fmt.Errorf("durable echo: %w", err))
				return
			}
			w.durable = append(w.durable, clampNs(time.Since(t2)))
		}
		if cn.null != nil {
			t3 := time.Now()
			if err := cn.null.Call("Null.Call", &NullArgs{}, &NullReply{}); err != nil {
				rec.fail(fmt.Errorf("null RPC server: %w", err))
				return
			}
			rec.nullNs += int64(time.Since(t3))
			rec.nulls++
		}
		if w.traced {
			rec.traces = append(rec.traces, opTrace{uint8(c), o.kind, int64(t0.Sub(base)), int64(t1.Sub(base)), int64(t2.Sub(base))})
		}
	}
}
