package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTick is USER_HZ: Linux reports /proc CPU times to user space in
// 1/100 s whatever the kernel's own HZ.
const clockTick = 100

// parseProcStat extracts utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (ticks int64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return ut + st, nil
}

// parseStatusKB extracts one "Vm...: N kB" field — VmRSS, the resident set,
// or VmHWM, its peak — from the contents of /proc/<pid>/status.
func parseStatusKB(b []byte, field string) (kb int64, err error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: malformed %s line %q", field, line)
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// parseHostStat extracts total and stolen ticks from /proc/stat's first line.
func parseHostStat(b []byte) (total, steal int64, err error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: field %d: %w", i+1, err)
		}
		if i < 8 { // guest times are already inside user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

func statusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, field)
}

func hostTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostStat(b)
}

// snapshot is one scrape of nsd's /metrics: plain numbers and histograms.
type snapshot map[string]json.RawMessage

type histJSON struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
}

func parseMetrics(b []byte) (snapshot, error) {
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return s, nil
}

// num reads a counter or gauge; a series the server never registered is 0.
func (s snapshot) num(name string) float64 {
	var v float64
	if raw, ok := s[name]; ok {
		_ = json.Unmarshal(raw, &v) // a histogram here leaves v at 0
	}
	return v
}

func (s snapshot) hist(name string) histJSON {
	var h histJSON
	if raw, ok := s[name]; ok {
		_ = json.Unmarshal(raw, &h) // a plain number here leaves h zero
	}
	return h
}

// delta is the change of a counter between two scrapes.
func delta(a, b snapshot, name string) float64 { return b.num(name) - a.num(name) }

// histMeanDelta is the mean of the observations a histogram gained between
// two scrapes. The registry's percentiles are power-of-two buckets, so the
// mean (sum ÷ count) is the only figure with more than one significant bit.
func histMeanDelta(a, b snapshot, name string) float64 {
	ha, hb := a.hist(name), b.hist(name)
	if hb.Count == ha.Count {
		return 0
	}
	return (hb.Sum - ha.Sum) / (hb.Count - ha.Count)
}

func scrape(debugAddr string) (snapshot, error) {
	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(b)
}

// children tracks every process the benchmark starts, so that any exit path
// can stop them all and wait for each.
type children struct {
	mu   sync.Mutex
	cmds []*exec.Cmd
}

var procs children

// start starts a prepared command and takes charge of stopping it.
func (c *children) start(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	c.mu.Lock()
	c.cmds = append(c.cmds, cmd)
	c.mu.Unlock()
	return nil
}

// kill stops one child with SIGKILL — the crash the restart metric and the
// durability check are about — and waits for it.
func (c *children) kill(cmd *exec.Cmd) {
	_ = cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	_ = cmd.Wait()                          // "signal: killed" is the expected result
	c.mu.Lock()
	for i, x := range c.cmds {
		if x == cmd {
			c.cmds = append(c.cmds[:i], c.cmds[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

func (c *children) killAll() {
	c.mu.Lock()
	cmds := append([]*exec.Cmd(nil), c.cmds...)
	c.mu.Unlock()
	for _, cmd := range cmds {
		c.kill(cmd)
	}
}

// nextPort walks the ports this process hands to its servers.
var nextPort atomic.Uint32

// freePort returns an unused loopback address for a server about to start.
// It stays below the kernel's ephemeral range (32768 up) on purpose: a port
// from bind(0) can be taken again, as the source port of one of the many
// connections this benchmark opens, in the moment between closing the probe
// listener and the child binding it — and then that nsd dies at start-up.
func freePort() (string, error) {
	const lo, span = 20000, 12000
	for tries := 0; tries < span; tries++ {
		port := lo + (uint32(os.Getpid())*64+nextPort.Add(1))%span
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue // someone else's; try the next
		}
		addr := l.Addr().String()
		l.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free loopback port between %d and %d", lo, lo+span)
}

// startServer starts a helper server — the calibration echo, or nsbench
// itself as the null RPC server — that binds a port of its own choosing and
// prints the address as its first line of output.
func startServer(bin, logPath string, args ...string) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, args...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, "", err
	}
	defer logf.Close() // the child has its own descriptor
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := procs.start(cmd); err != nil {
		return nil, "", err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		procs.kill(cmd)
		return nil, "", fmt.Errorf("%s: reading its address: %w", filepath.Base(bin), err)
	}
	return cmd, strings.TrimSpace(line), nil
}

// echoClient is one calibration connection: a 60-byte payload out and back.
type echoClient struct {
	conn net.Conn
	buf  [64]byte
}

func dialEcho(addr string) (*echoClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &echoClient{conn: conn}
	e.buf[3] = 60 // big-endian length of the payload that follows
	for i := 4; i < len(e.buf); i++ {
		e.buf[i] = byte(i)
	}
	return e, nil
}

func (e *echoClient) call() error {
	if _, err := e.conn.Write(e.buf[:]); err != nil {
		return err
	}
	var in [64]byte
	if _, err := io.ReadFull(e.conn, in[:]); err != nil {
		return err
	}
	if in != e.buf {
		return fmt.Errorf("echo: reply differs from request")
	}
	return nil
}

func (e *echoClient) close() { e.conn.Close() }

// waitFor polls cond every step until it holds or the deadline passes.
func waitFor(what string, timeout, step time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	var last error
	for {
		ok, err := cond()
		if ok {
			return nil
		}
		if err != nil {
			last = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s (last error: %v)", timeout, what, last)
		}
		time.Sleep(step)
	}
}
