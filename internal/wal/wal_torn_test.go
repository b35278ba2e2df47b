package wal

import (
	"bytes"
	"fmt"
	"testing"

	"smalldb/internal/vfs"
)

// TestTornTailMatrix is the exhaustive torn-write table of §4's transient
// failure: for a committed prefix of entries followed by one final entry,
// truncate the file at every byte boundary inside the final entry's frame
// and require Repair to recover exactly the committed prefix — never an
// error, never a lost prefix entry, never a surfaced partial entry.
//
// The final-entry payload sizes cross the dirty-page granularity the
// in-memory fs tracks (0, 1, page-1, page, page+1, 4*page), so the
// truncation sweep covers frames smaller than, equal to and much larger
// than one page.
func TestTornTailMatrix(t *testing.T) {
	const page = 512
	prefixPayloads := [][]byte{
		[]byte("alpha"),
		bytes.Repeat([]byte{0xAB}, page), // a page-sized committed entry
		[]byte("gamma"),
	}
	tailSizes := []int{0, 1, page - 1, page, page + 1, 4 * page}

	for _, tailSize := range tailSizes {
		tailSize := tailSize
		t.Run(fmt.Sprintf("tail%d", tailSize), func(t *testing.T) {
			// Build the intact log once to learn the frame boundaries.
			build := func(fs vfs.FS) (prefixEnd, fileEnd int64) {
				l, err := Open(fs, "log", ReplayResult{NextSeq: 1}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range prefixPayloads {
					if _, err := l.Append(p); err != nil {
						t.Fatal(err)
					}
				}
				prefixEnd = l.Size()
				if _, err := l.Append(bytes.Repeat([]byte{0xCD}, tailSize)); err != nil {
					t.Fatal(err)
				}
				fileEnd = l.Size()
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				return prefixEnd, fileEnd
			}
			probe := vfs.NewMem(1)
			prefixEnd, fileEnd := build(probe)

			// Truncate at every byte boundary of the final frame:
			// cut == prefixEnd is a cleanly missing tail entry,
			// cut == fileEnd is the fully written one.
			for cut := prefixEnd; cut <= fileEnd; cut++ {
				fs := vfs.NewMem(1)
				if p, f := build(fs); p != prefixEnd || f != fileEnd {
					t.Fatalf("rebuild diverged: %d/%d vs %d/%d", p, f, prefixEnd, fileEnd)
				}
				f, err := fs.OpenRW("log")
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Truncate(cut); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				f.Close()

				var got [][]byte
				res, err := Replay(fs, "log", 1, ReplayOptions{Repair: true}, func(seq uint64, payload []byte) error {
					got = append(got, append([]byte(nil), payload...))
					return nil
				})
				if err != nil {
					t.Fatalf("cut=%d: replay failed: %v", cut, err)
				}

				wantEntries := len(prefixPayloads)
				wantTrunc := cut > prefixEnd && cut < fileEnd
				wantGood := prefixEnd
				if cut == fileEnd {
					wantEntries++ // tail entry complete
					wantGood = fileEnd
				}
				if res.Entries != wantEntries {
					t.Fatalf("cut=%d: %d entries, want %d", cut, res.Entries, wantEntries)
				}
				if res.Truncated != wantTrunc {
					t.Fatalf("cut=%d: Truncated=%v, want %v", cut, res.Truncated, wantTrunc)
				}
				if res.NextSeq != uint64(wantEntries+1) {
					t.Fatalf("cut=%d: NextSeq=%d, want %d", cut, res.NextSeq, wantEntries+1)
				}
				if res.GoodSize != wantGood {
					t.Fatalf("cut=%d: GoodSize=%d, want %d", cut, res.GoodSize, wantGood)
				}
				for i, p := range prefixPayloads {
					if !bytes.Equal(got[i], p) {
						t.Fatalf("cut=%d: prefix entry %d corrupted", cut, i)
					}
				}
				// Repair must have shrunk the file to the committed
				// prefix, so a reopened log appends cleanly.
				if size, err := fs.Stat("log"); err != nil || size != wantGood {
					t.Fatalf("cut=%d: repaired size %d, want %d (%v)", cut, size, wantGood, err)
				}
				l, err := Open(fs, "log", res, Options{})
				if err != nil {
					t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
				}
				if seq, err := l.Append([]byte("after")); err != nil || seq != res.NextSeq {
					t.Fatalf("cut=%d: append after repair: seq=%d err=%v", cut, seq, err)
				}
				l.Close()
			}
		})
	}
}
