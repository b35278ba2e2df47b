package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoHTTPStack holds the daemon's binary to what it runs: the debug
// endpoint is obs's own GET responder, so no HTTP client or server, TLS,
// x509 or expvar code is linked, whose text and rodata would be resident
// in every node.
func TestNoHTTPStack(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "smalldb/cmd/nsd").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		for _, banned := range []string{"net/http", "crypto", "expvar"} {
			if pkg == banned || strings.HasPrefix(pkg, banned+"/") {
				t.Errorf("nsd links %s", pkg)
			}
		}
	}
}
