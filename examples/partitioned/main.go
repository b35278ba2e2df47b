// Partitioned: the §7 extension through the public API — one "large"
// database handled as several independently checkpointed partitions, each
// with its own log ("multiple log files").
//
// The example runs a mail system's state split into three partitions
// (mailboxes, aliases, queues), checkpoints the busy partition without
// blocking the others, and shows that the checkpoint empties only that
// partition's log.
//
// Run with:
//
//	go run ./examples/partitioned
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"smalldb"
)

// MailState is the root of each partition (they happen to share a shape
// here; partitions may have entirely different root types).
type MailState struct {
	Entries map[string]string
}

func newMailState() any { return &MailState{Entries: map[string]string{}} }

// Put binds a key in one partition.
type Put struct{ K, V string }

// Verify implements smalldb.Update.
func (u *Put) Verify(root any) error {
	if u.K == "" {
		return errors.New("empty key")
	}
	return nil
}

// Apply implements smalldb.Update.
func (u *Put) Apply(root any) error {
	root.(*MailState).Entries[u.K] = u.V
	return nil
}

func init() {
	smalldb.Register(&MailState{})
	smalldb.RegisterUpdate(&Put{})
}

func main() {
	dir := filepath.Join(os.TempDir(), "smalldb-partitioned")
	defer os.RemoveAll(dir)
	fs, err := smalldb.NewDirFS(dir)
	if err != nil {
		log.Fatal(err)
	}

	cfg := smalldb.MultiConfig{
		FS: fs,
		Partitions: map[string]func() any{
			"mailboxes": newMailState,
			"aliases":   newMailState,
			"queues":    newMailState,
		},
	}
	set, err := smalldb.OpenMulti(cfg)
	if err != nil {
		log.Fatal(err)
	}

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(set.Apply("mailboxes", &Put{K: "amy", V: "inbox=3"}))
	must(set.Apply("aliases", &Put{K: "postmaster", V: "amy"}))
	for i := 0; i < 200; i++ {
		must(set.Apply("queues", &Put{K: fmt.Sprintf("msg%04d", i), V: "queued"}))
	}

	// Each partition's log holds only its own entries.
	logs := func(when string) {
		fmt.Printf("log entries %s:", when)
		for _, p := range set.Partitions() {
			st, err := set.Store(p)
			must(err)
			fmt.Printf(" %s=%d", p, st.Stats().LogEntries)
		}
		fmt.Println()
	}
	logs("before checkpointing")

	// Checkpoint the busy partition: only "queues" blocks, briefly, and
	// only its log empties.
	must(set.Checkpoint("queues"))
	logs("after checkpointing queues")

	// Crash-free restart: each partition recovers from its own checkpoint
	// plus its own log.
	set.Close()
	set2, err := smalldb.OpenMulti(cfg)
	must(err)
	defer set2.Close()
	must(set2.View("queues", func(root any) error {
		fmt.Printf("queues recovered with %d messages\n", len(root.(*MailState).Entries))
		return nil
	}))
	must(set2.View("aliases", func(root any) error {
		fmt.Printf("postmaster -> %s\n", root.(*MailState).Entries["postmaster"])
		return nil
	}))
}
