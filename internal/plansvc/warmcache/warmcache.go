// Package warmcache is the plan service's persistent warm-start cache: an
// append-only, checksummed fingerprint→body store on disk. Plans are pure
// functions of their canonical fingerprint, so a persisted entry never goes
// stale — a restarted service that loads its warm cache serves previously
// computed plans as disk hits without a single planner probe.
//
// On-disk layout: a directory of segment files (seg-NNNNNNNN.wseg). Each
// segment starts with an 8-byte magic and holds a sequence of records:
//
//	u32 keyLen | u32 bodyLen | key | body | u32 crc32(key ∥ body)
//
// (little-endian, IEEE CRC). Segments are append-only and each process
// generation writes a fresh segment, so a crash can only ever truncate the
// tail of one file. The loader is paranoid: a record with an implausible
// length or a short read ends that segment (framing is gone past a torn
// write); a record whose checksum fails is skipped individually; a file with
// a bad magic is ignored wholesale. Every skipped record or file increments
// the corrupt count — boot always succeeds, corruption only costs re-planning
// the lost entries.
package warmcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Magic identifies a warm-cache segment file.
const Magic = "OOOWARM1"

const (
	segPattern = "seg-%08d.wseg"
	segGlob    = "seg-*.wseg"
	// maxRecordBytes bounds a single key or body length; anything larger in a
	// length field means the framing is corrupt.
	maxRecordBytes = 16 << 20
)

// Cache is an open warm-start cache: the merged in-memory index of every
// loadable record plus an append handle for new entries. Safe for concurrent
// use.
type Cache struct {
	dir string

	mu      sync.Mutex
	entries map[string][]byte
	corrupt int64
	loaded  int // records loaded from disk at Open
	seg     *os.File
	segNum  int
	closed  bool
}

// Open loads every segment in dir (creating the directory if needed) and
// returns the cache. Corrupt or truncated records are counted and skipped,
// never fatal: the only errors Open returns are filesystem-level (directory
// not creatable, a segment unreadable at the OS layer).
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warmcache: %w", err)
	}
	c := &Cache{dir: dir, entries: make(map[string][]byte)}
	segs, err := filepath.Glob(filepath.Join(dir, segGlob))
	if err != nil {
		return nil, fmt.Errorf("warmcache: %w", err)
	}
	sort.Strings(segs)
	for _, path := range segs {
		if err := c.loadSegment(path); err != nil {
			return nil, err
		}
		var n int
		fmt.Sscanf(filepath.Base(path), segPattern, &n)
		if n > c.segNum {
			c.segNum = n
		}
	}
	c.loaded = len(c.entries)
	return c, nil
}

// loadSegment reads one segment file into the index, skipping corruption.
func (c *Cache) loadSegment(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("warmcache: %w", err)
	}
	defer f.Close()
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != Magic {
		// Not a segment we understand (empty file, foreign content, torn
		// header): skip the whole file.
		c.corrupt++
		return nil
	}
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				c.corrupt++ // torn header: the tail of this segment is gone
			}
			return nil
		}
		keyLen := binary.LittleEndian.Uint32(hdr[0:4])
		bodyLen := binary.LittleEndian.Uint32(hdr[4:8])
		if keyLen == 0 || keyLen > maxRecordBytes || bodyLen > maxRecordBytes {
			// Implausible lengths: framing is lost, stop this segment.
			c.corrupt++
			return nil
		}
		buf := make([]byte, int(keyLen)+int(bodyLen)+4)
		if _, err := io.ReadFull(f, buf); err != nil {
			c.corrupt++ // truncated record
			return nil
		}
		payload := buf[:keyLen+bodyLen]
		want := binary.LittleEndian.Uint32(buf[keyLen+bodyLen:])
		if crc32.ChecksumIEEE(payload) != want {
			// A bit flip inside one record: skip it, keep reading — the
			// length framing held, so the next record is still aligned.
			c.corrupt++
			continue
		}
		key := string(payload[:keyLen])
		body := payload[keyLen : keyLen+bodyLen]
		c.entries[key] = body
	}
}

// Get returns the stored body for key.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.entries[key]
	return b, ok
}

// Put appends key→body to the current segment (opening a fresh one on first
// write of this process generation) and indexes it. Re-puts of a known key
// are deduplicated and report written=false.
func (c *Cache) Put(key string, body []byte) (written bool, err error) {
	if key == "" {
		return false, fmt.Errorf("warmcache: empty key")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, fmt.Errorf("warmcache: cache is closed")
	}
	if _, ok := c.entries[key]; ok {
		return false, nil
	}
	if c.seg == nil {
		c.segNum++
		path := filepath.Join(c.dir, fmt.Sprintf(segPattern, c.segNum))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return false, fmt.Errorf("warmcache: %w", err)
		}
		if _, err := f.Write([]byte(Magic)); err != nil {
			f.Close()
			return false, fmt.Errorf("warmcache: %w", err)
		}
		c.seg = f
	}
	rec := make([]byte, 8+len(key)+len(body)+4)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(body)))
	copy(rec[8:], key)
	copy(rec[8+len(key):], body)
	sum := crc32.ChecksumIEEE(rec[8 : 8+len(key)+len(body)])
	binary.LittleEndian.PutUint32(rec[8+len(key)+len(body):], sum)
	if _, err := c.seg.Write(rec); err != nil {
		return false, fmt.Errorf("warmcache: %w", err)
	}
	stored := make([]byte, len(body))
	copy(stored, body)
	c.entries[key] = stored
	return true, nil
}

// Len returns the number of indexed entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Loaded returns how many records the boot-time load recovered from disk.
func (c *Cache) Loaded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loaded
}

// Corrupt returns how many records or files were skipped as corrupt or
// truncated during the boot-time load.
func (c *Cache) Corrupt() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupt
}

// Close syncs and closes the append segment. Get keeps working (the index
// stays in memory); further Puts fail.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.seg == nil {
		return nil
	}
	err := c.seg.Sync()
	if cerr := c.seg.Close(); err == nil {
		err = cerr
	}
	c.seg = nil
	return err
}
