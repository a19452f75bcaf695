package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testEntry fabricates a cache entry whose digest is a genuine
// content address of its request bytes (readSpill verifies that on
// read-back), distinct per i.
func testEntry(i int, body string) *Entry {
	req := []byte(fmt.Sprintf(`{"seed":%d}`, i+1))
	sum := sha256.Sum256(req)
	return &Entry{Digest: hex.EncodeToString(sum[:]), Schema: SchemaVersion, Kind: "run",
		Request: req, Body: []byte(body)}
}

// spillBytes encodes e as a current-format spill artifact whose body
// checksum matches its body, whatever its digest and request say.
func spillBytes(t testing.TB, e *Entry) []byte {
	t.Helper()
	sum := bodySum(e)
	b, err := json.Marshal(&spillArtifact{Version: spillVersion, BodySum: hex.EncodeToString(sum[:]), Entry: *e})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheLRUEviction: past the entry bound the least-recently-used
// artifact leaves first, and recency is refreshed by Get.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1<<20, "")
	e0, e1, e2 := testEntry(0, `{"a":0}`), testEntry(1, `{"a":1}`), testEntry(2, `{"a":2}`)
	c.Put(e0)
	c.Put(e1)
	if _, src := c.Get(e0.Digest); src != SourceMem {
		t.Fatal("e0 should be cached")
	}
	// e0 is now most recent, so admitting e2 must evict e1.
	c.Put(e2)
	if _, src := c.Get(e1.Digest); src != SourceMiss {
		t.Errorf("e1 should have been evicted (LRU), got source %d", src)
	}
	if _, src := c.Get(e0.Digest); src != SourceMem {
		t.Errorf("e0 should have survived (recently used)")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries and 1 eviction", st)
	}
}

// TestCacheByteBound: the byte bound evicts independently of the entry
// bound, but the newest entry always stays.
func TestCacheByteBound(t *testing.T) {
	c := NewCache(100, 64, "")
	big := testEntry(0, strings.Repeat("x", 60))
	c.Put(big)
	huge := testEntry(1, strings.Repeat("y", 200))
	c.Put(huge)
	if _, src := c.Get(big.Digest); src != SourceMiss {
		t.Error("big should have been evicted by the byte bound")
	}
	if _, src := c.Get(huge.Digest); src != SourceMem {
		t.Error("the newest entry must always be kept, even over-budget")
	}
}

// TestCacheSpillRoundTrip: an evicted artifact is served from disk and
// re-admitted to memory, byte-identical.
func TestCacheSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 1<<20, dir)
	e0 := testEntry(0, `{"pdr":0.97}`)
	e0.Events = "{\"t\":1}\n"
	c.Put(e0)
	c.Put(testEntry(1, `{"pdr":0.5}`)) // evicts and spills e0

	got, src := c.Get(e0.Digest)
	if src != SourceSpill {
		t.Fatalf("source = %d, want spill", src)
	}
	if string(got.Body) != string(e0.Body) || got.Events != e0.Events || got.Kind != e0.Kind {
		t.Errorf("spill round-trip mutated the artifact: %+v", got)
	}
	// The spill hit re-admits: now it's a memory hit (and the other
	// entry spilled in turn).
	if _, src := c.Get(e0.Digest); src != SourceMem {
		t.Errorf("re-admitted artifact should hit memory, got %d", src)
	}
	if st := c.Stats(); st.SpillWrites < 1 || st.SpillErrors != 0 {
		t.Errorf("stats = %+v, want spill writes and no errors", st)
	}
}

// TestCacheSpillRejectsWrongDigest: a spill file claiming a different
// digest than its name is corruption, not a hit.
func TestCacheSpillRejectsWrongDigest(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, 1<<20, dir)
	imposter := testEntry(7, `{}`)
	wrong := fmt.Sprintf("%064x", 999)
	if err := os.WriteFile(filepath.Join(dir, wrong+".json"), spillBytes(t, imposter), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, src := c.Get(wrong); src != SourceMiss {
		t.Error("served a spill artifact whose digest does not match its name")
	}
	if st := c.Stats(); st.SpillCorrupt != 1 {
		t.Errorf("SpillCorrupt = %d, want 1", st.SpillCorrupt)
	}
}

// TestCacheSpillCorruptTruncated: a torn spill file is counted,
// removed, and reported as a plain miss — the second lookup does not
// re-count it.
func TestCacheSpillCorruptTruncated(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 1<<20, dir)
	e0 := testEntry(0, `{"pdr":0.97}`)
	c.Put(e0)
	c.Put(testEntry(1, `{"pdr":0.5}`)) // spills e0

	path := filepath.Join(dir, e0.Digest+".json")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, src := c.Get(e0.Digest); src != SourceMiss {
		t.Fatal("served a truncated spill artifact")
	}
	if st := c.Stats(); st.SpillCorrupt != 1 {
		t.Errorf("SpillCorrupt = %d, want 1", st.SpillCorrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("truncated artifact was not removed")
	}
	if _, src := c.Get(e0.Digest); src != SourceMiss {
		t.Error("removed artifact should be a plain miss")
	}
	if st := c.Stats(); st.SpillCorrupt != 1 {
		t.Errorf("second lookup re-counted corruption: %d", st.SpillCorrupt)
	}
}

// TestCacheSpillRejectsTamperedContent: a parseable artifact whose
// request bytes no longer hash to the content address fails
// verification even though its digest claim and body checksum match.
func TestCacheSpillRejectsTamperedContent(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 1<<20, dir)
	e0 := testEntry(0, `{"pdr":0.97}`)
	c.Put(e0)
	c.Put(testEntry(1, `{"pdr":0.5}`)) // spills e0

	tampered := *e0
	tampered.Request = []byte(`{"seed":999}`)
	if err := os.WriteFile(filepath.Join(dir, e0.Digest+".json"), spillBytes(t, &tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, src := c.Get(e0.Digest); src != SourceMiss {
		t.Error("served a spill artifact that fails content-address verification")
	}
	if st := c.Stats(); st.SpillCorrupt != 1 {
		t.Errorf("SpillCorrupt = %d, want 1", st.SpillCorrupt)
	}
}

// TestCacheSameDigestIsIdempotent: re-admitting an existing digest does
// not double-count bytes.
func TestCacheSameDigestIsIdempotent(t *testing.T) {
	c := NewCache(4, 1<<20, "")
	e := testEntry(0, `{"a":1}`)
	c.Put(e)
	c.Put(testEntry(0, `{"a":1}`))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != e.size() {
		t.Errorf("stats = %+v, want 1 entry of %d bytes", st, e.size())
	}
}

// spillAndRewrite spills e0 from a one-entry cache and rewrites the
// artifact's JSON object through edit, keeping every other key.
func spillAndRewrite(t *testing.T, c *Cache, dir string, e0 *Entry, edit func(map[string]json.RawMessage)) {
	t.Helper()
	c.Put(e0)
	c.Put(testEntry(1, `{"pdr":0.5}`)) // spills e0
	path := filepath.Join(dir, e0.Digest+".json")
	var m map[string]json.RawMessage
	if err := json.Unmarshal(readFile(t, path), &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSpillRejectsForgedBody is the forged-body regression: an
// artifact whose result was rewritten while its request (and so its
// digest claim) was kept must never serve, neither from the cache
// that wrote it nor from one that starts on the same directory. When
// the forger also recomputes the body checksum, the file is still
// consistent in itself; the cache that wrote it rejects it against
// the checksum it recorded at write time.
func TestCacheSpillRejectsForgedBody(t *testing.T) {
	forged := &Entry{Body: []byte(`{"pdr":1}`), Events: "{\"t\":9}\n"}
	for _, tc := range []struct {
		name     string
		field    string // the artifact key rewritten
		restart  bool
		resealed bool
	}{
		{"stale checksum", "result", false, false},
		{"stale checksum after restart", "result", true, false},
		{"resealed checksum", "result", false, true},
		{"forged events", "events", false, false},
		{"forged events after restart", "events", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := NewCache(1, 1<<20, dir)
			e0 := testEntry(0, `{"pdr":0.97}`)
			e0.Events = "{\"t\":1}\n"
			spillAndRewrite(t, c, dir, e0, func(m map[string]json.RawMessage) {
				if tc.field == "result" {
					m["result"] = forged.Body
				} else {
					ev, err := json.Marshal(forged.Events)
					if err != nil {
						t.Fatal(err)
					}
					m["events"] = ev
				}
				if tc.resealed {
					sum := bodySum(&Entry{Body: forged.Body, Events: e0.Events})
					m["body_sha256"] = json.RawMessage(`"` + hex.EncodeToString(sum[:]) + `"`)
				}
			})
			if tc.restart {
				c = NewCache(1, 1<<20, dir)
			}
			if got, src := c.Get(e0.Digest); src != SourceMiss {
				t.Fatalf("served a forged spill artifact: source %d, body %s", src, got.Body)
			}
			if st := c.Stats(); st.SpillCorrupt != 1 {
				t.Errorf("SpillCorrupt = %d, want 1", st.SpillCorrupt)
			}
			// The fresh run's entry is spilled again, genuine this time.
			c.Put(e0)
			c.Put(testEntry(2, `{"pdr":0.4}`))
			if got, src := c.Get(e0.Digest); src != SourceSpill || string(got.Body) != string(e0.Body) {
				t.Errorf("after re-spill: source %d, body %s; want the genuine body from spill", src, got.Body)
			}
		})
	}
}

// TestCacheSpillChecksumSeparatesBodyFromEvents: moving bytes from
// the end of the body to the start of the events keeps their
// concatenation, but not the checksum, so a restarted cache, which has
// only the checksum to go by, rejects the artifact.
func TestCacheSpillChecksumSeparatesBodyFromEvents(t *testing.T) {
	dir := t.TempDir()
	e0 := testEntry(0, `12`)
	e0.Events = "\n"
	spillAndRewrite(t, NewCache(1, 1<<20, dir), dir, e0, func(m map[string]json.RawMessage) {
		m["result"] = json.RawMessage(`1`)
		m["events"] = json.RawMessage(`"2\n"`)
	})
	c := NewCache(1, 1<<20, dir)
	if got, src := c.Get(e0.Digest); src != SourceMiss {
		t.Fatalf("served body %s with events %q", got.Body, got.Events)
	}
}

// TestCacheSpillRejectsOldFormat: an artifact in the unversioned
// format of earlier builds, which carried no body checksum, or in any
// other format version, is counted corrupt, removed and read as a miss
// even when its content is genuine.
func TestCacheSpillRejectsOldFormat(t *testing.T) {
	e0 := testEntry(0, `{"pdr":0.97}`)
	unversioned, err := json.Marshal(e0)
	if err != nil {
		t.Fatal(err)
	}
	current := string(spillBytes(t, e0))
	other := strings.Replace(current, fmt.Sprintf(`"spill_version":%d`, spillVersion), `"spill_version":1`, 1)
	if other == current {
		t.Fatal("spill_version key not found in the artifact")
	}
	for name, b := range map[string][]byte{"unversioned": unversioned, "version 1": []byte(other)} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := NewCache(1, 1<<20, dir)
			path := filepath.Join(dir, e0.Digest+".json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, src := c.Get(e0.Digest); src != SourceMiss {
				t.Error("served an artifact of another format")
			}
			if st := c.Stats(); st.SpillCorrupt != 1 {
				t.Errorf("SpillCorrupt = %d, want 1", st.SpillCorrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("old-format artifact was not removed")
			}
		})
	}
}

// TestCacheSpillWriteOnce: re-admitting a spilled digest and evicting
// it again does not write it again.
func TestCacheSpillWriteOnce(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 1<<20, dir)
	e0, e1 := testEntry(0, `{"pdr":0.97}`), testEntry(1, `{"pdr":0.5}`)
	c.Put(e0)
	c.Put(e1) // spills e0
	if st := c.Stats(); st.SpillWrites != 1 {
		t.Fatalf("SpillWrites = %d after the first eviction, want 1", st.SpillWrites)
	}
	for i := 0; i < 3; i++ {
		// Each spill hit re-admits one digest and evicts the other;
		// both are on disk after the first round.
		for _, e := range []*Entry{e0, e1} {
			if _, src := c.Get(e.Digest); src != SourceSpill && src != SourceMem {
				t.Fatalf("round %d: %s missed", i, e.Digest[:8])
			}
		}
	}
	st := c.Stats()
	if st.SpillWrites != 2 || st.Evictions < 6 {
		t.Errorf("stats = %+v, want 2 spill writes (one per digest) over at least 6 evictions", st)
	}
}

// TestCacheSpillVanishedFileIsRespilled: when a spilled digest's file
// disappears (an operator cleaned the directory), the next lookup is a
// plain miss and the digest's next eviction writes it again, after
// which it serves from spill.
func TestCacheSpillVanishedFileIsRespilled(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 1<<20, dir)
	e0, e1 := testEntry(0, `{"pdr":0.97}`), testEntry(1, `{"pdr":0.5}`)
	c.Put(e0)
	c.Put(e1) // spills e0
	path := filepath.Join(dir, e0.Digest+".json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, src := c.Get(e0.Digest); src != SourceMiss {
		t.Fatalf("vanished artifact: source %d, want miss", src)
	}
	c.Put(e0) // the fresh run; evicts e1
	c.Put(e1) // evicts e0 again
	if st := c.Stats(); st.SpillWrites != 3 || st.SpillCorrupt != 0 {
		t.Errorf("stats = %+v, want 3 spill writes (e0 twice, e1 once) and nothing corrupt", st)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("vanished artifact was not re-spilled: %v", err)
	}
	if got, src := c.Get(e0.Digest); src != SourceSpill || string(got.Body) != string(e0.Body) {
		t.Errorf("re-spilled artifact: source %d, want spill with the same body", src)
	}
}

// refCache is the oracle for the spill cache: an LRU whose spill
// writes every eviction and serves any digest ever evicted. Without
// tampering, the cache must answer every lookup as it does.
type refCache struct {
	maxEntries int
	maxBytes   int64
	lru        []*Entry // front = most recently used
	disk       map[string]*Entry
}

// touch moves digest's entry to the front and returns it, or nil.
func (r *refCache) touch(digest string) *Entry {
	for i, e := range r.lru {
		if e.Digest == digest {
			copy(r.lru[1:i+1], r.lru[:i])
			r.lru[0] = e
			return e
		}
	}
	return nil
}

func (r *refCache) get(digest string) (*Entry, Source) {
	if e := r.touch(digest); e != nil {
		return e, SourceMem
	}
	if e, ok := r.disk[digest]; ok {
		r.put(e)
		return e, SourceSpill
	}
	return nil, SourceMiss
}

func (r *refCache) put(e *Entry) {
	if r.touch(e.Digest) != nil {
		return
	}
	r.lru = append([]*Entry{e}, r.lru...)
	for len(r.lru) > 1 {
		var total int64
		for _, x := range r.lru {
			total += x.size()
		}
		if len(r.lru) <= r.maxEntries && total <= r.maxBytes {
			break
		}
		victim := r.lru[len(r.lru)-1]
		r.lru = r.lru[:len(r.lru)-1]
		r.disk[victim.Digest] = victim
	}
}

// TestCacheMatchesWriteEveryEviction is the oracle test: a fixed
// pseudo-random request sequence over a hot set larger than the cache
// gets the same served bytes and the same Source sequence from the
// cache as from refCache, under both an entry and a byte bound, while
// writing each evicted digest once.
func TestCacheMatchesWriteEveryEviction(t *testing.T) {
	pool := make([]*Entry, 12)
	for i := range pool {
		pool[i] = testEntry(i, fmt.Sprintf(`{"run":%d,"pad":%q}`, i, strings.Repeat("x", 10*i)))
		pool[i].Events = strings.Repeat(fmt.Sprintf("{\"t\":%d}\n", i), i%3)
	}
	for _, bound := range []struct{ entries, bytes int }{{5, 1 << 20}, {100, 400}} {
		c := NewCache(bound.entries, int64(bound.bytes), t.TempDir())
		ref := &refCache{maxEntries: bound.entries, maxBytes: int64(bound.bytes), disk: map[string]*Entry{}}
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 2000; step++ {
			e := pool[rng.Intn(len(pool))]
			got, src := c.Get(e.Digest)
			want, wantSrc := ref.get(e.Digest)
			if src != wantSrc {
				t.Fatalf("bound %+v step %d: source %d, oracle %d", bound, step, src, wantSrc)
			}
			if src == SourceMiss {
				// The fresh run produces the same artifact.
				c.Put(e)
				ref.put(e)
				continue
			}
			if string(got.Body) != string(want.Body) || got.Events != want.Events {
				t.Fatalf("bound %+v step %d: served %s, oracle %s", bound, step, got.Body, want.Body)
			}
		}
		st := c.Stats()
		if st.SpillWrites != uint64(len(ref.disk)) || st.SpillCorrupt != 0 || st.SpillErrors != 0 {
			t.Errorf("bound %+v: stats %+v, want %d spill writes (one per evicted digest)", bound, st, len(ref.disk))
		}
		if st.Evictions <= st.SpillWrites {
			t.Errorf("bound %+v: %d evictions for %d writes; the sequence never re-evicted a digest", bound, st.Evictions, st.SpillWrites)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheSpillConcurrent: lookups and admissions from several
// goroutines over a hot set larger than the cache serve only genuine
// artifacts and never see a torn or rejected spill file (run it under
// -race: make service-race).
func TestCacheSpillConcurrent(t *testing.T) {
	pool := make([]*Entry, 8)
	for i := range pool {
		pool[i] = testEntry(i, fmt.Sprintf(`{"run":%d}`, i))
	}
	c := NewCache(2, 1<<20, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for step := 0; step < 300; step++ {
				e := pool[rng.Intn(len(pool))]
				got, src := c.Get(e.Digest)
				if src == SourceMiss {
					c.Put(e)
					continue
				}
				if string(got.Body) != string(e.Body) {
					t.Errorf("goroutine %d: served %s for %s", g, got.Body, e.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.SpillCorrupt != 0 || st.SpillErrors != 0 || st.SpillWrites == 0 {
		t.Errorf("stats = %+v, want spill writes and nothing corrupt or failed", st)
	}
}
