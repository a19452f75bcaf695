package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"platoonsec/internal/scenario"
)

// fakeClock is a race-safe manual clock, so the service tests never
// touch the wall clock (the nowalltime rule holds in tests too).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestServer builds a Server on a fake clock and an httptest
// front end.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	cfg := Config{Now: clock.Now}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, clock
}

// postRun submits a run request body and returns the response.
func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const smallRun = `{"seed": 5, "duration_sec": 4, "attack": "replay"}`

// TestConcurrentIdenticalRequestsRunOnce is the single-flight
// guarantee, meant to run under -race: N concurrent identical requests
// execute exactly one simulation, and every response is byte-identical.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	const n = 16
	bodies := make([][]byte, n)
	sources := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(smallRun))
			if err != nil {
				t.Error(err)
				return
			}
			b, err := io.ReadAll(resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != 200 {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
			sources[i] = resp.Header.Get("X-Platoond-Cache")
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	snap := srv.Snapshot()
	if got := snap.Counters["service.runs_executed"]; got != 1 {
		t.Errorf("runs_executed = %d, want exactly 1 for %d identical requests", got, n)
	}
	mix := make(map[string]int)
	for _, s := range sources {
		mix[s]++
	}
	if mix["miss"] != 1 {
		t.Errorf("cache mix %v, want exactly one miss", mix)
	}
	if mix["dedup"]+mix["hit"] != n-1 {
		t.Errorf("cache mix %v, want %d dedup+hit", mix, n-1)
	}
}

// TestServedBytesMatchDirectRun: the HTTP body is exactly what a
// direct library call marshals — no envelope, no mutation.
func TestServedBytesMatchDirectRun(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, served := postRun(t, ts, smallRun)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}

	var nr RunRequest
	if err := json.Unmarshal([]byte(smallRun), &nr); err != nil {
		t.Fatal(err)
	}
	if err := nr.Normalize(); err != nil {
		t.Fatal(err)
	}
	opts, err := nr.Options(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, local) {
		t.Errorf("served %d bytes differ from direct run's %d bytes", len(served), len(local))
	}
}

// TestGetByDigest: POST then GET by the returned digest serves the
// same bytes; unknown and malformed digests answer 404 and 400.
func TestGetByDigest(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, posted := postRun(t, ts, smallRun)
	digest := resp.Header.Get("X-Platoond-Digest")
	if !ValidDigest(digest) {
		t.Fatalf("X-Platoond-Digest = %q", digest)
	}

	got, err := http.Get(ts.URL + "/v1/runs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(got.Body)
	if cerr := got.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 || !bytes.Equal(b, posted) {
		t.Errorf("GET by digest: status %d, bytes equal %v", got.StatusCode, bytes.Equal(b, posted))
	}
	if src := got.Header.Get("X-Platoond-Cache"); src != "hit" {
		t.Errorf("GET by digest source = %q, want hit", src)
	}

	for path, want := range map[string]int{
		"/v1/runs/" + strings.Repeat("0", 64): 404,
		"/v1/runs/nonsense":                   400,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		//platoonvet:allow errcheck -- test teardown of a read-only response
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestEventsArtifact: a run submitted with events serves its JSONL
// stream; the same run without events is a different digest with none.
func TestEventsArtifact(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	// The attack must arm inside the simulated window and a detecting
	// defense must be active, or the run emits no events at all.
	withEvents := `{"seed": 5, "duration_sec": 20, "attack": "sybil", "attack_start_sec": 1,
		"defense": ["vpd-ada", "trust", "ratelimit", "gap-timeout", "join-gate"], "events": true}`
	resp, _ := postRun(t, ts, withEvents)
	dEvents := resp.Header.Get("X-Platoond-Digest")
	resp2, _ := postRun(t, ts, smallRun)
	dPlain := resp2.Header.Get("X-Platoond-Digest")
	if dEvents == dPlain {
		t.Fatal("events capture must fork the digest: it selects a different artifact set")
	}

	got, err := http.Get(ts.URL + "/v1/runs/" + dEvents + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(got.Body)
	if cerr := got.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 || len(stream) == 0 {
		t.Fatalf("events: status %d, %d bytes", got.StatusCode, len(stream))
	}
	for i, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("events line %d is not JSON: %.80s", i, line)
		}
	}

	noEv, err := http.Get(ts.URL + "/v1/runs/" + dPlain + "/events")
	if err != nil {
		t.Fatal(err)
	}
	//platoonvet:allow errcheck -- test teardown of a read-only response
	noEv.Body.Close()
	if noEv.StatusCode != 404 {
		t.Errorf("events of an event-less run: status %d, want 404", noEv.StatusCode)
	}

	// A capture that legitimately recorded nothing (undefended attack:
	// no detector fires, no roles change) is still a valid — empty —
	// artifact, not a 404.
	resp3, _ := postRun(t, ts, `{"seed": 5, "duration_sec": 20, "attack": "jamming", "events": true}`)
	dEmpty := resp3.Header.Get("X-Platoond-Digest")
	empty, err := http.Get(ts.URL + "/v1/runs/" + dEmpty + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(empty.Body)
	if cerr := empty.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if empty.StatusCode != 200 || len(body) != 0 {
		t.Errorf("empty capture: status %d with %d bytes, want 200 with 0", empty.StatusCode, len(body))
	}
}

// TestDigestDryRun: POST /v1/digest answers the digest the real run
// would use, without executing anything.
func TestDigestDryRun(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/digest", "application/json", strings.NewReader(smallRun))
	if err != nil {
		t.Fatal(err)
	}
	var dry struct {
		Digest  string     `json:"digest"`
		Request RunRequest `json:"request"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dry)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if dry.Request.Schema != SchemaVersion || dry.Request.Vehicles != 8 {
		t.Errorf("dry run did not surface the normalized request: %+v", dry.Request)
	}
	if got := srv.Snapshot().Counters["service.runs_executed"]; got != 0 {
		t.Fatalf("dry run executed %d simulations", got)
	}

	run, _ := postRun(t, ts, smallRun)
	if d := run.Header.Get("X-Platoond-Digest"); d != dry.Digest {
		t.Errorf("dry-run digest %s != run digest %s", dry.Digest, d)
	}
}

// TestQuotaRejection: an empty bucket answers 429 quota with
// Retry-After, refills on the fake clock, and tenants are isolated.
func TestQuotaRejection(t *testing.T) {
	_, ts, clock := newTestServer(t, func(c *Config) {
		c.QuotaRate = 1
		c.QuotaBurst = 1
	})
	do := func(tenant string) *http.Response {
		req, err := http.NewRequest("POST", ts.URL+"/v1/runs", strings.NewReader(smallRun))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Platoond-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		//platoonvet:allow errcheck -- test teardown of a read-only response
		resp.Body.Close()
		return resp
	}
	if resp := do("alice"); resp.StatusCode != 200 {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	resp := do("alice")
	if resp.StatusCode != 429 {
		t.Fatalf("second immediate request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 quota without Retry-After")
	}
	if resp := do("bob"); resp.StatusCode != 200 {
		t.Errorf("bob shares alice's bucket: status %d", resp.StatusCode)
	}
	clock.Advance(2 * time.Second)
	if resp := do("alice"); resp.StatusCode != 200 {
		t.Errorf("refilled bucket still refused: status %d", resp.StatusCode)
	}
}

// TestSaturationRejection: a full wait queue answers 429 saturated
// deterministically (the queue counter is primed by hand rather than
// racing real runs).
func TestSaturationRejection(t *testing.T) {
	srv, ts, _ := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 1
	})
	srv.queuedMu.Lock()
	srv.queued = srv.cfg.MaxQueue
	srv.queuedMu.Unlock()

	resp, body := postRun(t, ts, smallRun)
	if resp.StatusCode != 429 {
		t.Fatalf("status %d (%s), want 429 saturated", resp.StatusCode, body)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Code != "saturated" {
		t.Errorf("body %s, want code saturated", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 saturated without Retry-After")
	}

	srv.queuedMu.Lock()
	srv.queued = 0
	srv.queuedMu.Unlock()
	if resp, _ := postRun(t, ts, smallRun); resp.StatusCode != 200 {
		t.Errorf("drained queue still refused: status %d", resp.StatusCode)
	}
}

// TestSpillSurvivesRestart: artifacts evicted to disk serve a second
// server instance pointed at the same spill directory.
func TestSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newTestServer(t, func(c *Config) {
		c.CacheEntries = 1
		c.SpillDir = dir
	})
	respA, bodyA := postRun(t, ts, smallRun)
	digestA := respA.Header.Get("X-Platoond-Digest")
	postRun(t, ts, `{"seed": 6, "duration_sec": 4}`) // evicts A to disk

	resp, body := postRun(t, ts, smallRun)
	if src := resp.Header.Get("X-Platoond-Cache"); src != "spill" {
		t.Errorf("after eviction: source %q, want spill", src)
	}
	if !bytes.Equal(body, bodyA) {
		t.Error("spill served different bytes")
	}

	_, ts2, _ := newTestServer(t, func(c *Config) { c.SpillDir = dir })
	got, err := http.Get(ts2.URL + "/v1/runs/" + digestA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(got.Body)
	if cerr := got.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 || !bytes.Equal(b, bodyA) {
		t.Errorf("restarted server: status %d, bytes equal %v", got.StatusCode, bytes.Equal(b, bodyA))
	}
	if src := got.Header.Get("X-Platoond-Cache"); src != "spill" {
		t.Errorf("restarted server source = %q, want spill", src)
	}
}

// TestBadRequests: malformed and unknown inputs answer 400 with the
// documented code, and never execute a run.
func TestBadRequests(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	for name, body := range map[string]string{
		"not json":        `{"seed": `,
		"unknown field":   `{"sede": 5}`,
		"unknown attack":  `{"attack": "quantum"}`,
		"unknown defense": `{"defense": ["forcefield"]}`,
		"wrong knob":      `{"attack": "dos", "sybil_ghosts": 3}`,
		"world vehicles":  `{"vehicles": 8, "world": {}}`,
	} {
		resp, b := postRun(t, ts, body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, b)
		}
	}
	snap := srv.Snapshot()
	if got := snap.Counters["service.runs_executed"]; got != 0 {
		t.Errorf("bad requests executed %d runs", got)
	}
	if got := snap.Counters["service.bad_requests"]; got != 6 {
		t.Errorf("bad_requests = %d, want 6", got)
	}
}

// TestUnbuildableRunsRejected: requests whose run cannot be built,
// measures colliding identities or exceeds the work budget get a 400
// from both POST /v1/runs and POST /v1/digest, before anything runs.
func TestUnbuildableRunsRejected(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	for _, body := range []string{
		`{"vehicles":16378,"duration_sec":0.001}`,
		`{"vehicles":40,"with_joiner":true,"duration_sec":10}`,
		`{"vehicles":600,"attack":"sybil","duration_sec":0.1}`,
		`{"attack":"sybil","sybil_ghosts":600}`,
		`{"duration_sec":9e9}`,
		`{"world":{"junctions":1000000}}`,
		`{"vehicles":128,"duration_sec":10}`,
		`{"world":{"platoons":4000}}`,
	} {
		for _, path := range []string{"/v1/runs", "/v1/digest"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 400 {
				t.Errorf("%s %s: status %d (%s), want 400", path, body, resp.StatusCode, b)
			}
		}
	}
	if got := srv.Snapshot().Counters["service.runs_executed"]; got != 0 {
		t.Errorf("rejected requests executed %d runs", got)
	}
}

// TestWorldRunOverHTTP: a world request runs and serves world-result
// JSON.
func TestWorldRunOverHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	body := `{"seed": 2, "duration_sec": 2, "world": {"platoons": 4, "vehicles_per_platoon": 4, "free_agents": 2}}`
	resp, b := postRun(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if _, ok := res["Platoons"]; !ok {
		t.Errorf("world response lacks Platoons: %.120s", b)
	}
}

// TestMetricsEndpoints: the text exposition carries the counters and
// percentiles; the JSON snapshot parses.
func TestMetricsEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	postRun(t, ts, smallRun)
	postRun(t, ts, smallRun)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"platoond_service_runs_executed 1",
		"platoond_service_cache_hits 1",
		"platoond_service_cache_misses 1",
		"platoond_service_run_ms_p50 ",
		"platoond_service_request_ms_count 2",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, text)
		}
	}

	jresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	err = json.NewDecoder(jresp.Body).Decode(&snap)
	if cerr := jresp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["service.runs_executed"] != 1 {
		t.Errorf("JSON snapshot runs_executed = %d, want 1", snap.Counters["service.runs_executed"])
	}
}

// TestRegistryEndpoints: the attack and defense registries surface the
// taxonomy.
func TestRegistryEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	var attacks []attackInfo
	getJSON(t, ts.URL+"/v1/registry/attacks", &attacks)
	if len(attacks) != 9 {
		t.Errorf("attack registry has %d rows, want the 9 Table II attacks", len(attacks))
	}
	keys := make(map[string]bool)
	for _, a := range attacks {
		keys[a.Key] = true
	}
	for _, want := range []string{"sybil", "jamming", "replay", "dos"} {
		if !keys[want] {
			t.Errorf("attack registry lacks %q", want)
		}
	}

	var defs struct {
		Flags      []string        `json:"flags"`
		Mechanisms []mechanismInfo `json:"mechanisms"`
	}
	getJSON(t, ts.URL+"/v1/registry/defenses", &defs)
	if len(defs.Flags) != len(defenseFlags) || len(defs.Mechanisms) == 0 {
		t.Errorf("defense registry: %d flags, %d mechanisms", len(defs.Flags), len(defs.Mechanisms))
	}

	var schema struct {
		Schema int `json:"schema"`
	}
	getJSON(t, ts.URL+"/v1/schema", &schema)
	if schema.Schema != SchemaVersion {
		t.Errorf("schema endpoint reports %d, want %d", schema.Schema, SchemaVersion)
	}
}

// getJSON fetches and decodes a JSON endpoint.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
}

// TestRoutesMatchMux: every documented route is the pattern the mux
// actually serves — the generated API reference cannot drift from the
// handlers.
func TestRoutesMatchMux(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	digest := strings.Repeat("a", 64)
	for _, rt := range Routes() {
		path := strings.ReplaceAll(rt.Path, "{digest}", digest)
		req := httptest.NewRequest(rt.Method, path, nil)
		_, pattern := srv.mux.Handler(req)
		if pattern != rt.Method+" "+rt.Path {
			t.Errorf("route %s %s resolves to mux pattern %q", rt.Method, rt.Path, pattern)
		}
	}
}
