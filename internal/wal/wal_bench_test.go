package wal

import (
	"fmt"
	"runtime"
	"testing"

	"smalldb/internal/vfs"
)

func BenchmarkAppend(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("payload%d", size), func(b *testing.B) {
			fs := vfs.NewMem(1)
			l, err := Create(fs, "log", 1, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppendParallelSharedSyncs(b *testing.B) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log", 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedAppendParallel drives the epoch barrier from 16 committers
// on a real directory, where a sync costs real time: one stream (every seal
// flushes inline) against four (multi-stream seals flush concurrently).
func BenchmarkShardedAppendParallel(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			fs, err := vfs.NewOS(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s, err := OpenSharded(fs, "log", shards, 1, nil, ShardedOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			payload := make([]byte, 128)
			b.SetParallelism(16 / runtime.GOMAXPROCS(0))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := s.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	payload := make([]byte, 128)
	const entries = 1000
	for i := 0; i < entries; i++ {
		l.Append(payload)
	}
	l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Replay(fs, "log", 1, ReplayOptions{}, func(uint64, []byte) error { return nil })
		if err != nil || res.Entries != entries {
			b.Fatalf("%+v %v", res, err)
		}
	}
}
