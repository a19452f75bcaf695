package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Entry is one cached run artifact: the canonical result bytes (exactly
// json.Marshal of the *scenario.Result or *world.Result a direct call
// would produce — the server adds headers, never wraps the body) plus
// the optional captured JSONL event stream.
type Entry struct {
	// Digest is the content address (64 hex chars).
	Digest string `json:"digest"`
	// Schema is the schema version the digest was computed under.
	Schema int `json:"schema"`
	// Kind is "run" or "world".
	Kind string `json:"kind"`
	// Request is the canonical JSON of the normalized request, kept so
	// a spilled artifact is self-describing.
	Request json.RawMessage `json:"request"`
	// Body is the canonical result JSON.
	Body json.RawMessage `json:"result"`
	// Events is the captured JSONL event stream ("" unless the request
	// asked for events).
	Events string `json:"events,omitempty"`
}

// size is the entry's accounted byte weight.
func (e *Entry) size() int64 {
	return int64(len(e.Body) + len(e.Events) + len(e.Request))
}

// Source says where a cache lookup was answered from.
type Source int

const (
	// SourceMiss: not cached anywhere.
	SourceMiss Source = iota
	// SourceMem: served from the in-memory LRU.
	SourceMem
	// SourceSpill: served from the disk spill (and re-admitted).
	SourceSpill
)

// Cache is the content-addressed result store: an in-memory LRU
// bounded by entry count and byte weight, spilling evicted artifacts
// to an optional disk directory that is consulted on memory misses.
// Because bodies are pure functions of their digest, eviction can
// never serve a stale result — a spilled artifact re-admitted years
// later is byte-identical to a fresh simulation. For the same reason
// each digest is spilled once: an evicted entry whose artifact this
// cache already wrote is dropped without touching the disk. Safe for
// concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	spillDir   string

	ll    *list.List // front = most recently used; values are *Entry
	items map[string]*list.Element
	bytes int64

	// spilled maps every digest this cache has written to the spill
	// directory to the bodySum it wrote. An entry goes in only after
	// its write succeeds, and leaves when its file is found missing or
	// removed as corrupt, so the next eviction writes it again.
	spilled map[string][32]byte
	// tmpSeq numbers temporary spill files, so two concurrent writes of
	// one digest never share a temporary file.
	tmpSeq atomic.Uint64

	// accounting, read through Stats.
	evictions    uint64
	spillWrites  uint64
	spillErrs    uint64
	spillCorrupt uint64
}

// NewCache builds a cache bounded by maxEntries and maxBytes; spillDir
// "" disables disk spill.
func NewCache(maxEntries int, maxBytes int64, spillDir string) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		spillDir:   spillDir,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		spilled:    make(map[string][32]byte),
	}
}

// CacheStats is the cache's accounting snapshot.
type CacheStats struct {
	Entries     int
	Bytes       int64
	Evictions   uint64
	SpillWrites uint64
	SpillErrors uint64
	// SpillCorrupt counts spill artifacts rejected on read-back
	// (unparseable or truncated file, another format version, digest
	// claim mismatch, request bytes that do not hash to the digest, or
	// a body that fails its checksum). Each one degrades to a cache
	// miss — a fresh run — never an error.
	SpillCorrupt uint64
}

// Stats reports the current accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:      c.ll.Len(),
		Bytes:        c.bytes,
		Evictions:    c.evictions,
		SpillWrites:  c.spillWrites,
		SpillErrors:  c.spillErrs,
		SpillCorrupt: c.spillCorrupt,
	}
}

// Get answers a lookup from memory, then from the spill directory
// (re-admitting a disk hit so hot digests migrate back to memory).
func (c *Cache) Get(digest string) (*Entry, Source) {
	c.mu.Lock()
	if el, ok := c.items[digest]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*Entry)
		c.mu.Unlock()
		return e, SourceMem
	}
	c.mu.Unlock()
	e, err := c.readSpill(digest)
	if err != nil || e == nil {
		return nil, SourceMiss
	}
	c.Put(e)
	return e, SourceSpill
}

// Put admits an entry, evicting least-recently-used entries past the
// bounds (always keeping at least the new entry). When a spill
// directory is configured, an evicted artifact is written to it unless
// this cache has already written that digest.
func (c *Cache) Put(e *Entry) {
	c.mu.Lock()
	var spill []*Entry
	if el, ok := c.items[e.Digest]; ok {
		// Same digest ⇒ same bytes; just refresh recency.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[e.Digest] = c.ll.PushFront(e)
	c.bytes += e.size()
	for c.ll.Len() > 1 && (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) {
		back := c.ll.Back()
		victim := back.Value.(*Entry)
		c.ll.Remove(back)
		delete(c.items, victim.Digest)
		c.bytes -= victim.size()
		c.evictions++
		if _, done := c.spilled[victim.Digest]; c.spillDir != "" && !done {
			spill = append(spill, victim)
		}
	}
	c.mu.Unlock()
	for _, v := range spill {
		c.writeSpill(v)
	}
}

// spillPath is the artifact file for a digest. Digests are validated
// hex (ValidDigest) before they reach the cache, so the join cannot
// escape the spill directory.
func (c *Cache) spillPath(digest string) string {
	return filepath.Join(c.spillDir, digest+".json")
}

// spillVersion is the spill artifact format generation. readSpill
// rejects every other version, so an artifact from an older build
// (which carried no body checksum) reads as a corrupt miss and is
// replaced by the next eviction of a fresh run.
const spillVersion = 2

// spillArtifact is the on-disk form of an evicted Entry: the format
// version, the hex bodySum of the entry, and the entry's own fields.
type spillArtifact struct {
	Version int    `json:"spill_version"`
	BodySum string `json:"body_sha256"`
	Entry
}

// bodySum is the SHA-256 over what an artifact serves: the result body
// and the event stream. The body's length goes first, so no byte can
// move from one to the other without changing the sum.
func bodySum(e *Entry) [32]byte {
	h := sha256.New()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(e.Body)))
	h.Write(n[:])
	h.Write(e.Body)
	h.Write([]byte(e.Events))
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// writeSpill persists an evicted artifact (write a temporary file,
// then rename, so a concurrent reader never sees a torn file) and
// records its digest as spilled. Spill failures are counted, not
// fatal: the cache degrades to memory-only.
func (c *Cache) writeSpill(e *Entry) {
	sum := bodySum(e)
	err := func() error {
		if err := os.MkdirAll(c.spillDir, 0o755); err != nil {
			return err
		}
		b, err := json.Marshal(&spillArtifact{Version: spillVersion, BodySum: hex.EncodeToString(sum[:]), Entry: *e})
		if err != nil {
			return err
		}
		tmp := fmt.Sprintf("%s.%d.tmp", c.spillPath(e.Digest), c.tmpSeq.Add(1))
		err = os.WriteFile(tmp, b, 0o644)
		if err == nil {
			err = os.Rename(tmp, c.spillPath(e.Digest))
		}
		if err != nil {
			//platoonvet:allow errcheck -- best-effort cleanup of a failed write; the write error is what gets counted
			os.Remove(tmp)
		}
		return err
	}()
	c.mu.Lock()
	if err != nil {
		c.spillErrs++
	} else {
		c.spillWrites++
		c.spilled[e.Digest] = sum
	}
	c.mu.Unlock()
}

// readSpill loads a spilled artifact and verifies all of it before
// trusting it: the file must parse as the current format version,
// claim the requested digest, carry request bytes that SHA-256 to that
// digest, and carry a result body and event stream that match its
// body checksum. For a digest this cache wrote itself, the checksum
// must also equal the one recorded at write time, so a file rewritten
// after the write never serves, even with a consistent checksum. A
// corrupt artifact is counted, removed best-effort, and reported as a
// plain miss: the caller falls through to a fresh engine run, which is
// always safe because the digest is a perfect memoization key. A
// missing file is a plain miss too, and drops the digest from the
// spilled set so its next eviction writes it again.
func (c *Cache) readSpill(digest string) (*Entry, error) {
	if c.spillDir == "" {
		return nil, nil
	}
	b, err := os.ReadFile(c.spillPath(digest))
	if err != nil {
		if os.IsNotExist(err) {
			c.mu.Lock()
			delete(c.spilled, digest)
			c.mu.Unlock()
			return nil, nil
		}
		return nil, err
	}
	var a spillArtifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, c.corrupt(digest, fmt.Errorf("service: corrupt spill artifact %s: %w", digest, err))
	}
	if a.Version != spillVersion {
		return nil, c.corrupt(digest, fmt.Errorf("service: spill artifact %s has format version %d, want %d", digest, a.Version, spillVersion))
	}
	if a.Digest != digest {
		return nil, c.corrupt(digest, fmt.Errorf("service: spill artifact %s claims digest %s", digest, a.Digest))
	}
	if sum := sha256.Sum256(a.Request); hex.EncodeToString(sum[:]) != digest {
		return nil, c.corrupt(digest, fmt.Errorf("service: spill artifact %s: request does not hash to the digest", digest))
	}
	sum := bodySum(&a.Entry)
	if hex.EncodeToString(sum[:]) != a.BodySum {
		return nil, c.corrupt(digest, fmt.Errorf("service: spill artifact %s: body fails its checksum", digest))
	}
	c.mu.Lock()
	wrote, ok := c.spilled[digest]
	c.mu.Unlock()
	if ok && wrote != sum {
		return nil, c.corrupt(digest, fmt.Errorf("service: spill artifact %s differs from the one this cache wrote", digest))
	}
	return &a.Entry, nil
}

// corrupt accounts one rejected spill artifact and removes the file
// best-effort so the corruption is not re-parsed on every lookup. The
// digest leaves the spilled set, so its next eviction writes it again.
func (c *Cache) corrupt(digest string, err error) error {
	c.mu.Lock()
	c.spillCorrupt++
	delete(c.spilled, digest)
	c.mu.Unlock()
	//platoonvet:allow errcheck -- best-effort removal of an already-corrupt artifact; the lookup degrades to a miss either way
	os.Remove(c.spillPath(digest))
	return err
}
