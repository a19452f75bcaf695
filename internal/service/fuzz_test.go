package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
)

// fuzzSpillEntry is the artifact FuzzReadSpill spills; its seed corpus
// under testdata/fuzz/FuzzReadSpill is built from it.
func fuzzSpillEntry() *Entry {
	e := testEntry(0, `{"pdr":0.97,"platoon":"intact"}`)
	e.Events = "{\"t\":1}\n{\"t\":2}\n"
	return e
}

// FuzzReadSpill writes arbitrary bytes as the artifact file of a digest
// the cache has spilled, then looks the digest up, from the cache that
// wrote it and from a new cache on the same directory (a restart).
// Nothing may panic, and a miss leaves no artifact behind to be
// re-parsed. The cache that wrote the digest serves the spilled
// artifact or misses. A restarted cache has no record of what was
// written, so it can also serve a forgery whose request hashes to the
// digest and whose checksum was recomputed over the forged body (the
// "resealed" seed); anything less consistent misses.
func FuzzReadSpill(f *testing.F) {
	e0 := fuzzSpillEntry()
	f.Add(spillBytes(f, e0))
	f.Fuzz(func(t *testing.T, artifact []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, e0.Digest+".json")
		writer := NewCache(1, 1<<20, dir)
		writer.Put(e0)
		writer.Put(testEntry(1, `{}`)) // spills e0
		for i, c := range []*Cache{writer, NewCache(1, 1<<20, dir)} {
			if err := os.WriteFile(path, artifact, 0o644); err != nil {
				t.Fatal(err)
			}
			got, src := c.Get(e0.Digest)
			switch src {
			case SourceSpill:
				same := bytes.Equal(got.Body, e0.Body) && got.Events == e0.Events && bytes.Equal(got.Request, e0.Request)
				if !same && (i == 0 || !resealed(got, e0.Digest, artifact)) {
					t.Fatalf("cache %d served an artifact other than the spilled one: %+v", i, got)
				}
			case SourceMiss:
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("cache %d: rejected artifact left on disk", i)
				}
			default:
				t.Fatalf("cache %d: source %d from an empty memory cache", i, src)
			}
		}
	})
}

// resealed reports whether a served entry is a consistent forgery: its
// request hashes to digest and the artifact's body_sha256 is the
// SHA-256 of the body's 8-byte big-endian length, the body and the
// events, computed here independently of bodySum.
func resealed(e *Entry, digest string, artifact []byte) bool {
	var a struct {
		BodySum string `json:"body_sha256"`
	}
	if json.Unmarshal(artifact, &a) != nil {
		return false
	}
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(e.Body)))
	body := sha256.Sum256(append(append(n[:], e.Body...), e.Events...))
	req := sha256.Sum256(e.Request)
	return hex.EncodeToString(req[:]) == digest && hex.EncodeToString(body[:]) == a.BodySum
}

// FuzzNormalizeRequest feeds arbitrary bodies to the request decoder
// and to POST /v1/digest. Nothing may panic; a body the decoder or
// Normalize rejects is a 4xx, and an accepted one a 200 carrying its
// digest; Normalize is idempotent; and the canonical bytes decode and
// normalize back to the same digest.
func FuzzNormalizeRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"seed":3,"duration_sec":5,"attack":"replay"}`,
		`{"attack":"jamming","jammer_power_dbm":30,"defense":["trust","pki","trust"]}`,
		`{"attack":"sybil","sybil_ghosts":-1}`,
		`{"attack":"fake-maneuver","fake_maneuver_variant":"leave","with_joiner":true}`,
		`{"world":{"platoons":3,"epoch_ms":50},"attack":"sybil","duration_sec":2}`,
		`{"world":{},"vehicles":4}`,
		`{"duration_sec":1e-12}`,
		`{"duration_sec":1e10,"attack_start_sec":1e300}`,
		`{"world":{"epoch_ms":1e-9}}`,
		`{"schema":2}`,
		`{"bogus":1}`,
		`{"seed":1}{"seed":2}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	srv, err := NewServer(Config{Now: func() time.Time { return time.Unix(0, 0) }, TimelineInterval: -1, TraceCapacity: -1})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/digest", bytes.NewReader(body)))
		nr, apiErr := decodeRun(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		if apiErr != nil {
			if rec.Code < 400 || rec.Code > 499 || apiErr.Status < 400 || apiErr.Status > 499 {
				t.Fatalf("rejected body %q: digest status %d, decode status %d", body, rec.Code, apiErr.Status)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("accepted body %q: digest status %d: %s", body, rec.Code, rec.Body)
		}
		digest, err := Digest(nr)
		if err != nil {
			t.Fatal(err)
		}
		var served struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || served.Digest != digest {
			t.Fatalf("body %q: /v1/digest answered %s, want digest %s (%v)", body, rec.Body, digest, err)
		}

		canon, err := CanonicalBytes(nr)
		if err != nil {
			t.Fatal(err)
		}
		var again RunRequest
		if err := json.Unmarshal(canon, &again); err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", canon, err)
		}
		want := again
		if again.World != nil {
			w := *again.World
			want.World = &w
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized request %s is rejected on a second Normalize: %v", canon, err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("Normalize is not idempotent: %+v became %+v", want, again)
		}
		if d, err := Digest(&again); err != nil || d != digest {
			t.Fatalf("canonical bytes %s digest to %s, want %s (%v)", canon, d, digest, err)
		}
		// An accepted request must also run: its times fit the
		// simulator's clock, or the run fails with a 500 (or runs a
		// different experiment) after the 200 from /v1/digest.
		o, err := nr.Options(1, 1, nil)
		if err != nil {
			t.Fatalf("accepted request %s has no run options: %v", canon, err)
		}
		if o.Duration <= 0 || o.AttackStart < 0 || o.JoinerAt < 0 ||
			o.World != nil && (o.World.Epoch <= 0 || o.World.Epoch > o.Duration) {
			t.Fatalf("accepted request %s has clock values the simulator rejects: duration %d, attack start %d, joiner %d",
				canon, o.Duration, o.AttackStart, o.JoinerAt)
		}
		// Accepted also implies buildable: clamped to 1 ms (one epoch
		// for a world), the run completes without error.
		if o.World != nil {
			o.World.Duration = o.World.Epoch
			_, err = scenario.RunWorld(o)
		} else {
			o.Duration = sim.Millisecond
			_, err = scenario.Run(o)
		}
		if err != nil {
			t.Fatalf("accepted request %s does not run: %v", canon, err)
		}
	})
}
