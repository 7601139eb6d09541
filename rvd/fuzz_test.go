package rvd

// The store's entry decoder meets hostile bytes before anything else in
// the daemon does: it re-verifies whatever the filesystem hands back,
// including whatever a crash left on disk. Its fuzz target pins the same
// contract as the dist wire fuzzers: arbitrary input yields an error —
// never a panic, never an allocation disproportionate to the input — and
// accepted data re-encodes to a canonical fixed point.

import (
	"bytes"
	"testing"
)

// FuzzCacheEntryDecode: arbitrary bytes are some store entry file.
// decodeEntry must error or yield a verified (key, value) whose
// re-encoding is byte-identical to the input — entries have exactly one
// spelling, so a verified read is also a proof of on-disk canonicality.
func FuzzCacheEntryDecode(f *testing.F) {
	k := CacheKey("fuzz", []byte("shard"))
	f.Add(appendEntry(nil, k, []byte("value bytes")))
	f.Add(appendEntry(nil, k, nil))
	f.Add([]byte{})
	f.Add([]byte("rvc1"))
	f.Add(append([]byte("rvc0"), make([]byte, 64)...)) // wrong magic
	f.Add(appendEntry(nil, k, bytes.Repeat([]byte{7}, 300))[:40])
	f.Add(append(appendEntry(nil, k, []byte("v")), 0xAA)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		ek, value, err := decodeEntry(data)
		if err != nil {
			return
		}
		if enc := appendEntry(nil, ek, value); !bytes.Equal(enc, data) {
			t.Fatalf("accepted entry is not canonical\nin:  %x\nout: %x", data, enc)
		}
	})
}
