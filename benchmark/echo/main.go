// Command echo is nsbench's calibration server: the smallest TCP
// request/reply service this host can run. Every nsd call the benchmark
// times is followed by one call here from the same client, and the timing
// metrics are reported as ratios to it, so the host's speed of the moment
// divides out.
//
// Wire format: a 4-byte big-endian length, then that many payload bytes
// (nsbench sends 60); the server writes the same frame back. With -sync DIR
// it is the durable echo Sets are measured against: each connection appends
// every payload to a file of its own in DIR and syncs it before replying —
// the smallest request this host can make durable, one RPC and "exactly one
// disk write". It imports the
// standard library only, and must stay that way: anything of smalldb's in
// here would let a change to the program under test move its own yardstick.
// Changing this file or the way nsbench interleaves its calls re-baselines
// every _rel metric; bump calibrationVersion in cmd/nsbench when you do.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
)

const maxPayload = 1 << 10

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	syncDir := flag.String("sync", "", "append each payload to a per-connection file in this directory and sync it before replying")
	flag.Parse()
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("echo: %v", err)
	}
	// The parent reads this line to learn the port.
	fmt.Println(l.Addr())
	for n := 0; ; n++ {
		c, err := l.Accept()
		if err != nil {
			log.Fatalf("echo: accept: %v", err)
		}
		var f *os.File
		if *syncDir != "" {
			if f, err = os.Create(filepath.Join(*syncDir, fmt.Sprintf("conn%d.log", n))); err != nil {
				log.Fatalf("echo: %v", err)
			}
		}
		go serve(c, f)
	}
}

// serve echoes frames on c; with a file, each payload is durable before its
// reply is sent.
func serve(c net.Conn, f *os.File) {
	defer c.Close()
	if f != nil {
		defer f.Close()
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // Go's default; stated because the calibration depends on it
	}
	var buf [4 + maxPayload]byte
	for {
		if _, err := io.ReadFull(c, buf[:4]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(buf[:4])
		if n > maxPayload {
			return
		}
		if _, err := io.ReadFull(c, buf[4:4+n]); err != nil {
			return
		}
		if f != nil {
			if _, err := f.Write(buf[4 : 4+n]); err != nil {
				log.Printf("echo: %v", err)
				return
			}
			if err := f.Sync(); err != nil {
				log.Printf("echo: %v", err)
				return
			}
		}
		if _, err := c.Write(buf[:4+n]); err != nil {
			return
		}
	}
}
