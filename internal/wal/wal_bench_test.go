package wal

import (
	"fmt"
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
