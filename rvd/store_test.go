package rvd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(i int) Key {
	return CacheKey("test-stamp", []byte(fmt.Sprintf("shard-%d", i)))
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	value := []byte("the aggregated result bytes")
	if _, ok := s.Get(k); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := s.Put(k, value); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, value) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, value)
	}
	if !s.Contains(k) || s.Len() != 1 {
		t.Fatalf("Contains/Len disagree: %v, %d", s.Contains(k), s.Len())
	}
}

func TestStoreReopenReloadsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Stray temp debris from an "interrupted write" must be cleaned up
	// and never indexed.
	debris := filepath.Join(dir, testKey(99).String()+entrySuffix+".tmp")
	if err := os.WriteFile(debris, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened store indexed %d entries, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("entry %d: Get = %q, %v", i, got, ok)
		}
	}
	if s2.Contains(testKey(99)) {
		t.Fatal("temp debris was indexed")
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("temp debris not removed: %v", err)
	}
}

// TestStoreQuarantineBitFlip is the corruption contract: flip one byte
// of an entry on disk, and the next Get must quarantine it (rename
// aside, drop from index, report a miss) — never serve it, never fail.
func TestStoreQuarantineBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	value := []byte("result bytes that will be corrupted")
	if err := s.Put(k, value); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.String()+entrySuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every position, one at a time: every single-bit
	// corruption anywhere in the entry must be caught.
	for pos := 0; pos < len(raw); pos += 7 {
		corrupt := append([]byte(nil), raw...)
		corrupt[pos] ^= 0x10
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.index[k] = int64(len(corrupt)) // re-arm after the previous quarantine
		s.mu.Unlock()
		if got, ok := s.Get(k); ok {
			t.Fatalf("bit flip at %d: Get served corrupt value %q", pos, got)
		}
	}
	if s.Quarantined() == 0 {
		t.Fatal("no quarantines counted")
	}
	// The quarantined copies are preserved aside for post-mortems.
	ents, _ := os.ReadDir(dir)
	aside := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), corruptSuffix) {
			aside++
		}
	}
	if aside == 0 {
		t.Fatal("no .corrupt files preserved")
	}
	// Re-put heals the entry.
	if err := s.Put(k, value); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, value) {
		t.Fatalf("after heal: Get = %q, %v", got, ok)
	}
}

func TestStoreQuarantinedCountedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(3)
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.String()+entrySuffix)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("served garbage")
	}
	s2, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 || s2.Quarantined() != 1 {
		t.Fatalf("reopen: Len=%d Quarantined=%d, want 0/1", s2.Len(), s2.Quarantined())
	}
}

// TestEntryDecodeTruncation pins clean failure at every byte offset: any
// prefix of a valid entry decodes to an error, never a panic and never a
// false success.
func TestEntryDecodeTruncation(t *testing.T) {
	k := testKey(11)
	value := []byte("0123456789abcdef0123456789abcdef")
	full := appendEntry(nil, k, value)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeEntry(full[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	ek, ev, err := decodeEntry(full)
	if err != nil || ek != k || !bytes.Equal(ev, value) {
		t.Fatalf("full entry: key=%v value=%q err=%v", ek == k, ev, err)
	}
	// Trailing garbage is also rejected.
	if _, _, err := decodeEntry(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

func TestCacheKeyStampSeparation(t *testing.T) {
	shard := []byte("identical shard bytes")
	a := CacheKey("proto=3 registry=1", shard)
	b := CacheKey("proto=3 registry=2", shard)
	if a == b {
		t.Fatal("different version stamps produced the same key")
	}
	// The length prefix keeps (stamp, shard) unambiguous: moving a byte
	// across the boundary must change the key.
	c := CacheKey("ab", []byte("cd"))
	d := CacheKey("abc", []byte("d"))
	if c == d {
		t.Fatal("stamp/shard boundary is ambiguous")
	}
}

// Contains reports index membership without touching the disk; a true
// answer may still become a miss if Get finds the entry corrupt.
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}
