// End-to-end tests of the command-line tools: build the real binaries, run
// an nsd daemon against a real directory, drive it with nsctl, inspect the
// directory with logdump, and check recovery across a daemon restart.
package smalldb_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTools compiles the commands once per test binary.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir, "./cmd/nsd", "./cmd/nsctl", "./cmd/logdump")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// freePort grabs an available TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func waitForServer(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
}

func nsctl(t *testing.T, bin, addr string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "nsctl"), append([]string{"-addr", addr}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bin := buildTools(t)
	dbdir := t.TempDir()
	addr := freePort(t)

	start := func() *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, "nsd"), "-dir", dbdir, "-listen", addr)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitForServer(t, addr)
		return cmd
	}
	daemon := start()
	stop := func(cmd *exec.Cmd) {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}

	// Populate over the wire.
	for i := 0; i < 5; i++ {
		if out, err := nsctl(t, bin, addr, "set", fmt.Sprintf("net/hosts/h%d", i), fmt.Sprintf("16.4.0.%d", i)); err != nil {
			t.Fatalf("set: %v\n%s", err, out)
		}
	}
	out, err := nsctl(t, bin, addr, "lookup", "net/hosts/h3")
	if err != nil || strings.TrimSpace(out) != "16.4.0.3" {
		t.Fatalf("lookup: %q, %v", out, err)
	}
	out, err = nsctl(t, bin, addr, "list", "net/hosts")
	if err != nil || !strings.Contains(out, "h0") || !strings.Contains(out, "h4") {
		t.Fatalf("list: %q, %v", out, err)
	}
	if out, err := nsctl(t, bin, addr, "delete", "net/hosts/h0"); err != nil {
		t.Fatalf("delete: %v\n%s", err, out)
	}
	if out, _ := nsctl(t, bin, addr, "lookup", "net/hosts/h0"); !strings.Contains(out, "not found") {
		t.Fatalf("deleted name still resolves: %q", out)
	}
	out, err = nsctl(t, bin, addr, "enumerate", "net")
	if err != nil || !strings.Contains(out, "net/hosts/h1=16.4.0.1") {
		t.Fatalf("enumerate: %q, %v", out, err)
	}

	// Kill (no clean shutdown) and restart: the log replays.
	daemon.Process.Kill()
	daemon.Wait()
	daemon = start()
	defer stop(daemon)

	out, err = nsctl(t, bin, addr, "lookup", "net/hosts/h2")
	if err != nil || strings.TrimSpace(out) != "16.4.0.2" {
		t.Fatalf("after restart: %q, %v", out, err)
	}
	if out, _ := nsctl(t, bin, addr, "lookup", "net/hosts/h0"); !strings.Contains(out, "not found") {
		t.Fatalf("delete resurrected by restart: %q", out)
	}
}

func TestReplicatedDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bin := buildTools(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	addrA, addrB := freePort(t), freePort(t)

	start := func(dir, addr, name, peers string) *exec.Cmd {
		args := []string{"-dir", dir, "-listen", addr, "-name", name, "-anti-entropy", "200ms"}
		if peers != "" {
			args = append(args, "-peers", peers)
		}
		cmd := exec.Command(filepath.Join(bin, "nsd"), args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitForServer(t, addr)
		return cmd
	}
	a := start(dirA, addrA, "alpha", "beta="+addrB)
	b := start(dirB, addrB, "beta", "alpha="+addrA)
	defer func() {
		for _, d := range []*exec.Cmd{a, b} {
			d.Process.Signal(os.Interrupt)
			d.Wait()
		}
	}()

	// Write at alpha; read at beta (push propagation, with anti-entropy
	// as backstop).
	if out, err := nsctl(t, bin, addrA, "set", "repl/key", "propagated"); err != nil {
		t.Fatalf("set at alpha: %v\n%s", err, out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := nsctl(t, bin, addrB, "lookup", "repl/key")
		if err == nil && strings.TrimSpace(out) == "propagated" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("beta never converged: %q, %v", out, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// And the reverse direction.
	if out, err := nsctl(t, bin, addrB, "set", "repl/back", "from-beta"); err != nil {
		t.Fatalf("set at beta: %v\n%s", err, out)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		out, err := nsctl(t, bin, addrA, "lookup", "repl/back")
		if err == nil && strings.TrimSpace(out) == "from-beta" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alpha never converged: %q, %v", out, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func TestLogdumpOnRealDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bin := buildTools(t)
	dbdir := t.TempDir()
	addr := freePort(t)

	daemon := exec.Command(filepath.Join(bin, "nsd"), "-dir", dbdir, "-listen", addr)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	waitForServer(t, addr)
	if out, err := nsctl(t, bin, addr, "set", "audit/entry", "value-42"); err != nil {
		t.Fatalf("set: %v\n%s", err, out)
	}
	daemon.Process.Signal(os.Interrupt)
	daemon.Wait()

	// Summary view.
	out, err := exec.Command(filepath.Join(bin, "logdump"), "-dir", dbdir).CombinedOutput()
	if err != nil {
		t.Fatalf("logdump: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "checkpoint1") || !strings.Contains(text, "version: 1") {
		t.Errorf("summary missing structure:\n%s", text)
	}
	if !strings.Contains(text, "logfile1: 1 entries") {
		t.Errorf("summary missing log count:\n%s", text)
	}
	if !strings.Contains(text, "of 65536 allocated") {
		t.Errorf("summary missing the log's allocated length:\n%s", text)
	}

	// Entry dump decodes the update generically.
	out, err = exec.Command(filepath.Join(bin, "logdump"), "-dir", dbdir, "-log", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("logdump -log: %v\n%s", err, out)
	}
	text = string(out)
	if !strings.Contains(text, "SetValue") || !strings.Contains(text, "value-42") {
		t.Errorf("entry dump missing update contents:\n%s", text)
	}

	// Checkpoint dump decodes the tree generically.
	out, err = exec.Command(filepath.Join(bin, "logdump"), "-dir", dbdir, "-checkpoint", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("logdump -checkpoint: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Tree") {
		t.Errorf("checkpoint dump missing root:\n%s", out)
	}
}

// httpGet fetches a debug-endpoint path, retrying briefly while the
// listener comes up.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", url, err)
		}
		return resp.StatusCode, string(body)
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return 0, ""
}

// TestDebugEndpoint starts nsd with -debug and checks that the live
// observability endpoint serves /metrics (JSON with non-zero update
// counters after traffic), /stats and /debug/pprof/, and that
// logdump -stats summarizes the resulting log.
func TestDebugEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bin := buildTools(t)
	dbdir := t.TempDir()
	addr := freePort(t)
	debugAddr := freePort(t)

	daemon := exec.Command(filepath.Join(bin, "nsd"),
		"-dir", dbdir, "-listen", addr, "-debug", debugAddr, "-slow", "1ns")
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(os.Interrupt)
		daemon.Wait()
	}()
	waitForServer(t, addr)
	waitForServer(t, debugAddr)

	for i := 0; i < 7; i++ {
		if out, err := nsctl(t, bin, addr, "set", fmt.Sprintf("obs/k%d", i), "v"); err != nil {
			t.Fatalf("set: %v\n%s", err, out)
		}
	}
	if out, err := nsctl(t, bin, addr, "lookup", "obs/k3"); err != nil {
		t.Fatalf("lookup: %v\n%s", err, out)
	}

	base := "http://" + debugAddr

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var metrics map[string]any
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if got, _ := metrics["core_updates"].(float64); got != 7 {
		t.Errorf("core_updates = %v, want 7", metrics["core_updates"])
	}
	if got, _ := metrics["rpc_requests"].(float64); got < 8 {
		t.Errorf("rpc_requests = %v, want ≥ 8", metrics["rpc_requests"])
	}
	commit, ok := metrics["core_update_commit_ns"].(map[string]any)
	if !ok {
		t.Fatalf("core_update_commit_ns = %v, want histogram object", metrics["core_update_commit_ns"])
	}
	if got, _ := commit["count"].(float64); got != 7 {
		t.Errorf("commit histogram count = %v, want 7", commit["count"])
	}
	if p50, _ := commit["p50"].(float64); p50 <= 0 {
		t.Errorf("commit p50 = %v, want > 0", commit["p50"])
	}

	code, body = httpGet(t, base+"/stats")
	if code != http.StatusOK || !strings.Contains(body, "core_updates") {
		t.Errorf("/stats status %d body:\n%s", code, body)
	}
	if !strings.Contains(body, "update.commit") {
		t.Errorf("/stats missing traced events:\n%s", body)
	}

	if code, _ := httpGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	// logdump -stats reads the directory the daemon just wrote.
	daemon.Process.Signal(os.Interrupt)
	daemon.Wait()
	out, err := exec.Command(filepath.Join(bin, "logdump"), "-dir", dbdir, "-stats").CombinedOutput()
	if err != nil {
		t.Fatalf("logdump -stats: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "logfile1: 7 entries") || !strings.Contains(text, "payload sizes:") {
		t.Errorf("logdump -stats output:\n%s", text)
	}
}

// TestTraceEndToEnd runs nsctl trace against a live nsd. A call is traced
// only when its caller sends a context: untraced calls leave /debug/trace
// empty, and nsctl trace's Set, printed as its commit's timeline, is the
// one trace listed after it.
func TestTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bin := buildTools(t)
	addr := freePort(t)
	debugAddr := freePort(t)
	daemon := exec.Command(filepath.Join(bin, "nsd"), "-dir", t.TempDir(), "-listen", addr, "-debug", debugAddr)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(os.Interrupt)
		daemon.Wait()
	}()
	waitForServer(t, addr)
	waitForServer(t, debugAddr)
	base := "http://" + debugAddr

	if out, err := nsctl(t, bin, addr, "set", "obs/k1", "v"); err != nil {
		t.Fatalf("set: %v\n%s", err, out)
	}
	if out, err := nsctl(t, bin, addr, "lookup", "obs/k1"); err != nil {
		t.Fatalf("lookup: %v\n%s", err, out)
	}
	if _, body := httpGet(t, base+"/debug/trace"); !strings.Contains(body, "no traces recorded") {
		t.Errorf("/debug/trace after untraced calls:\n%s", body)
	}
	out, err := nsctl(t, bin, addr, "trace", "obs/k1")
	if err != nil {
		t.Fatalf("trace: %v\n%s", err, out)
	}
	var id string
	if _, err := fmt.Sscanf(out, "trace %s 8 events", &id); err != nil {
		t.Fatalf("trace output does not open with an 8-event header: %v\n%s", err, out)
	}
	for _, name := range []string{"rpc.call", "update.commit", "lock.wait", "verify", "pickle", "wal.append", "apply", "wal.sync"} {
		if !strings.Contains(out, name) {
			t.Errorf("trace timeline lacks %s:\n%s", name, out)
		}
	}
	if _, body := httpGet(t, base+"/debug/trace"); strings.Count(body, " events") != 1 || !strings.Contains(body, strings.TrimSuffix(id, ":")) {
		t.Errorf("/debug/trace should list trace %s alone:\n%s", id, body)
	}
}

// TestCrashTortureBounded runs the crashtest CLI with a small op budget:
// every crash point of a 10-update workload, in both store and replica
// modes, must recover with zero invariant violations. A full-size sweep
// lives behind `go run ./cmd/crashtest`; this slice keeps the suite fast.
func TestCrashTortureBounded(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "./cmd/crashtest")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(filepath.Join(dir, "crashtest"), "-seed", "1", "-ops", "10").CombinedOutput()
	if err != nil {
		t.Fatalf("crashtest found violations: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "mode=store") || !strings.Contains(text, "mode=replica") {
		t.Errorf("crashtest output missing a mode:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.Contains(line, "violations=0") {
			t.Errorf("unexpected crashtest line: %s", line)
		}
	}
}
