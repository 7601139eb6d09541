package rvd

import (
	"fmt"
	"testing"
)

// BenchmarkCacheLookup measures the store's read path — index check,
// file read, full checksum verification — on a warm 256-entry store with
// 4KiB values (the order of a real shard aggregate).
func BenchmarkCacheLookup(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	const entries = 256
	value := make([]byte, 4096)
	for i := range value {
		value[i] = byte(i)
	}
	keys := make([]Key, entries)
	for i := range keys {
		keys[i] = CacheKey("bench", []byte(fmt.Sprintf("shard-%d", i)))
		if err := s.Put(keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("verified-read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(keys[i%entries]); !ok {
				b.Fatal("miss on a present key")
			}
		}
	})
	b.Run("index-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !s.Contains(keys[i%entries]) {
				b.Fatal("miss on a present key")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		absent := CacheKey("bench", []byte("never-stored"))
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(absent); ok {
				b.Fatal("hit on an absent key")
			}
		}
	})
}
