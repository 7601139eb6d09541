package rvd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is the daemon's persistent content-addressed result cache: one
// file per entry under a flat directory, named by the hex cache key,
// each file a checksummed self-describing record. Writes are atomic
// (temp file, fsync, rename) so a crash mid-write can at worst leave a
// stray temp file, never a half-entry under a valid name; reads verify
// the embedded key and checksum and QUARANTINE — rename aside, log,
// report a miss — anything that fails, so a corrupt entry is recomputed
// rather than served, and corruption is never fatal to the daemon.
type Store struct {
	dir  string
	logf func(format string, args ...any)

	mu          sync.Mutex
	index       map[Key]int64 // entry size on disk, by key
	totalBytes  int64
	quarantined int
}

// Key is a cache key: the SHA-256 hash of the daemon's version stamp and
// one canonical shard-descriptor encoding (see CacheKey).
type Key [sha256.Size]byte

// String renders the key as the lowercase hex the store names files by.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// CacheKey derives the cache key for one canonical shard encoding:
// SHA-256 over the length-prefixed version stamp followed by the shard
// bytes. The stamp folds the wire-protocol and program-registry
// generations into every key, so results computed by an incompatible
// binary are structurally unreachable rather than wrongly served; the
// length prefix keeps (stamp, shard) pairs unambiguous.
func CacheKey(stamp string, shard []byte) Key {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	h.Write(n[:binary.PutUvarint(n[:], uint64(len(stamp)))])
	h.Write([]byte(stamp))
	h.Write(shard)
	var k Key
	h.Sum(k[:0])
	return k
}

const (
	entrySuffix   = ".rvc"
	corruptSuffix = ".corrupt"
	// entryMagic heads every entry file; a file that does not start with
	// it was never a complete entry.
	entryMagic = "rvc1"
	// maxEntryValue bounds the value length claimed by an entry header:
	// far above any real shard aggregate, low enough that a corrupt
	// length cannot demand unbounded allocation (the aggregate of a
	// maxCases shard is itself wire-bounded well below this).
	maxEntryValue = 1 << 26
)

// fnv1a64 is the entry checksum: FNV-1a 64 over the key and value bytes.
func fnv1a64(sum uint64, data []byte) uint64 {
	for _, c := range data {
		sum ^= uint64(c)
		sum *= 1099511628211
	}
	return sum
}

const fnvOffset64 = 14695981039346656037

// uvarintCanon decodes a minimally-encoded uvarint: w <= 0 on
// truncation, overflow, or a redundant spelling (0x80 0x00 also encodes
// zero under binary.Uvarint). The entry decoder insists on the minimal
// form so every store entry has exactly one byte spelling — the
// canonical-fixed-point property FuzzCacheEntryDecode pins.
func uvarintCanon(b []byte) (uint64, int) {
	v, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, w
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutUvarint(tmp[:], v) != w {
		return 0, -1
	}
	return v, w
}

// appendEntry encodes one store entry: magic, raw key, uvarint value
// length, value, and the FNV-1a 64 checksum of key+value.
func appendEntry(dst []byte, k Key, value []byte) []byte {
	dst = append(dst, entryMagic...)
	dst = append(dst, k[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, value...)
	sum := fnv1a64(fnv1a64(fnvOffset64, k[:]), value)
	return binary.LittleEndian.AppendUint64(dst, sum)
}

// decodeEntry parses and verifies one entry image: magic, embedded key,
// bounded value, checksum, no trailing bytes. Arbitrary input yields an
// error or a verified (key, value) — never a panic, never an allocation
// disproportionate to len(data) (pinned by FuzzCacheEntryDecode). The
// returned value aliases data.
func decodeEntry(data []byte) (Key, []byte, error) {
	var k Key
	if len(data) < len(entryMagic)+len(k) || string(data[:len(entryMagic)]) != entryMagic {
		return k, nil, fmt.Errorf("rvd: entry missing %q header", entryMagic)
	}
	data = data[len(entryMagic):]
	copy(k[:], data)
	data = data[len(k):]
	n, w := uvarintCanon(data)
	if w <= 0 {
		return k, nil, fmt.Errorf("rvd: truncated entry value length")
	}
	if n > maxEntryValue {
		return k, nil, fmt.Errorf("rvd: entry value length %d exceeds bound", n)
	}
	data = data[w:]
	if uint64(len(data)) < n+8 {
		return k, nil, fmt.Errorf("rvd: entry truncated (%d bytes left of %d-byte value + checksum)", len(data), n)
	}
	value := data[:n]
	rest := data[n:]
	if len(rest) != 8 {
		return k, nil, fmt.Errorf("rvd: %d trailing bytes after entry checksum", len(rest)-8)
	}
	want := binary.LittleEndian.Uint64(rest)
	if got := fnv1a64(fnv1a64(fnvOffset64, k[:]), value); got != want {
		return k, nil, fmt.Errorf("rvd: entry checksum mismatch (stored %016x, computed %016x)", want, got)
	}
	return k, value, nil
}

// OpenStore opens (creating if needed) the result store rooted at dir
// and loads its index by scanning entry filenames. Stray temp files
// from an interrupted write are removed; quarantined entries are left
// where they are for post-mortems. logf (nil for silent) receives
// quarantine and recovery notices.
func OpenStore(dir string, logf func(format string, args ...any)) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rvd: creating store dir: %w", err)
	}
	s := &Store{dir: dir, logf: logf, index: map[Key]int64{}}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rvd: scanning store dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted write: the rename never happened, so the
			// entry never existed. Remove the debris.
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, entrySuffix):
			var k Key
			raw, err := hex.DecodeString(strings.TrimSuffix(name, entrySuffix))
			if err != nil || len(raw) != len(k) {
				continue // not an entry name; leave it alone
			}
			copy(k[:], raw)
			var size int64
			if info, err := e.Info(); err == nil {
				size = info.Size()
			}
			s.index[k] = size
			s.totalBytes += size
		case strings.Contains(name, corruptSuffix):
			s.quarantined++
		}
	}
	s.mu.Lock()
	s.publishGauges()
	s.mu.Unlock()
	return s, nil
}

// publishGauges pushes the index size and byte totals to the process
// metrics. Caller holds s.mu.
func (s *Store) publishGauges() {
	obsStoreEntries.Set(int64(len(s.index)))
	obsStoreBytes.Set(s.totalBytes)
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.String()+entrySuffix)
}

// Put writes one entry durably: encode, write to a temp file, fsync,
// rename into place, fsync the directory. After Put returns the entry
// survives a crash at any instant; a crash inside Put leaves the store
// exactly as it was.
func (s *Store) Put(k Key, value []byte) error {
	path := s.path(k)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("rvd: store write: %w", err)
	}
	img := appendEntry(nil, k, value)
	if _, err := f.Write(img); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("rvd: store write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("rvd: store fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rvd: store close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rvd: store rename: %w", err)
	}
	syncDir(s.dir)
	obsStoreWrittenB.Add(uint64(len(img)))
	s.mu.Lock()
	s.totalBytes += int64(len(img)) - s.index[k]
	s.index[k] = int64(len(img))
	s.publishGauges()
	s.mu.Unlock()
	return nil
}

// Get reads and verifies one entry. A missing key is (nil, false). An
// entry that exists but fails verification — wrong magic, bad checksum,
// embedded key disagreeing with the filename — is quarantined: renamed
// aside with a .corrupt suffix, logged, dropped from the index, and
// reported as a miss, so the caller recomputes. Corruption is never
// served and never fatal.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	_, ok := s.index[k]
	s.mu.Unlock()
	if !ok {
		obsStoreMisses.Inc()
		return nil, false
	}
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.quarantine(k, path, fmt.Errorf("unreadable: %w", err))
		return nil, false
	}
	ek, value, err := decodeEntry(data)
	if err != nil {
		s.quarantine(k, path, err)
		return nil, false
	}
	if ek != k {
		s.quarantine(k, path, fmt.Errorf("embedded key %s disagrees with filename", ek))
		return nil, false
	}
	obsStoreHits.Inc()
	obsStoreReadB.Add(uint64(len(data)))
	return value, true
}

// quarantine renames a failed entry aside and logs the reason.
func (s *Store) quarantine(k Key, path string, cause error) {
	obsStoreQuar.Inc()
	obsStoreMisses.Inc() // the caller sees this read as a miss
	s.mu.Lock()
	s.totalBytes -= s.index[k]
	delete(s.index, k)
	s.quarantined++
	n := s.quarantined
	s.publishGauges()
	s.mu.Unlock()
	dst := fmt.Sprintf("%s%s.%d", path, corruptSuffix, n)
	if err := os.Rename(path, dst); err != nil {
		// Renaming failed (already gone?): removal from the index alone
		// still guarantees the entry is never served.
		dst = "(rename failed: " + err.Error() + ")"
	}
	if s.logf != nil {
		s.logf("rvd: store entry %s quarantined to %s: %v", k, dst, cause)
	}
}

// Len reports the number of valid entries indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// SizeBytes reports the total size on disk of the indexed entries.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalBytes
}

// Quarantined reports how many entries have been quarantined (including
// ones found already renamed aside at open).
func (s *Store) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// syncDir fsyncs a directory so a just-renamed entry's name is durable;
// best effort — some filesystems refuse directory fsync, and the rename
// itself is already atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
