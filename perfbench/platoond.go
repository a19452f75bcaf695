package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"platoonsec/internal/scenario"
	"platoonsec/internal/service"
)

// platoond load shape (README.md has the derivations):
//
//   - the hot set is E19's scenario pool (platoonload's default 20
//     scenarios), requested with uniform popularity as platoonload's
//     round-robin requests it;
//   - the fresh fractions are E19's cache mix (LOADTEST.json: 20 misses
//     and 15 single-flight dedups in 2000 requests): per arrival, 0.25%
//     is a fresh scenario and 0.75% a fresh scenario sent twice at once;
//   - the memory cache holds 16 of the 20 hot scenarios. This is a
//     choice, not a measurement: the cache must sit below the working set
//     so that about one hot request in five is a spill read-back;
//   - capacityRPS is the seed code's closed-loop throughput on this mix
//     (the probe below; median 4546 req/s over 13 probes on a 2-vCPU host).
//     Base and peak offer 0.05 and 0.1 of it. Higher rates made the seed
//     code's p99 too unsteady for the benchmark's 0.25 bound: over ten
//     seeds, its spread was up to 0.22 at 0.1 of capacity and up to 0.29
//     at 0.2; at 0.67 queues build (p50 7 to 14 ms);
//   - a request served within 250 ms, platoond's default
//     -slo-latency-ms objective, counts as goodput.
const (
	hotSet       = 20
	cacheEntries = 16
	freshFrac    = 0.0025
	pairFrac     = 0.0075
	capacityRPS  = 4500
	baseRPS      = 0.05 * capacityRPS
	peakRPS      = 0.1 * capacityRPS
	latencyLimit = 250 * time.Millisecond
	// maxOutstanding caps request goroutines: if the server stalls, the
	// generator blocks here and the stall shows as generator lag.
	maxOutstanding = 1024
)

// The timed phase runs three parts in turn: a closed-loop capacity probe
// over the mix, then the open-loop base and peak phases. Each open phase
// lasts openShare of --seconds; the probe sends as many requests as the
// seed code serves in probeShare of it.
const (
	probe, base, peak = 0, 1, 2
	probeShare        = 0.4
	openShare         = 0.3
)

// platoondAttacks are the undefended scenarios requests draw from.
var platoondAttacks = []string{"", "replay", "jamming", "sybil", "fake-maneuver",
	"eavesdropping", "dos", "impersonation", "sensor-spoofing", "malware"}

// request is one scheduled POST /v1/runs.
type request struct {
	body []byte
	due  time.Duration // offset from the phase start (open-loop phases)
}

// outcome is what one request observed.
type outcome struct {
	latency time.Duration // from the due time to the last body byte
	lag     time.Duration // how late the generator sent it
	status  int
	cache   string // X-Platoond-Cache
	digest  string // X-Platoond-Digest
	sum     [32]byte
	err     error
}

// ok reports whether the request was served (correctness is checked
// separately, by verify).
func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

type platoondSession struct {
	traced bool
	spill  string
	ts     *httptest.Server
	client *http.Client
	phases [3][]request // probe, base, peak

	bodyMu sync.Mutex
	bodies map[string][]byte // first served body per digest

	out   [3][]outcome
	walls [3]time.Duration
}

// platoondRequest is a small undefended scenario: 8 vehicles, 10
// simulated seconds, attack armed at 3 s.
func platoondRequest(seed int64, attack string) []byte {
	b, err := json.Marshal(service.RunRequest{Seed: seed, DurationSec: 10, Vehicles: 8, Attack: attack, AttackStartSec: 3})
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return b
}

// platoondInputs generates the hot set and the three phases' requests
// from the workload seed; d is the length of the timed phase.
func platoondInputs(seed int64, d time.Duration) ([][]byte, [3][]request) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	freshSeed := func() int64 {
		for {
			s := rng.Int63n(1<<40) + 1
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	hot := make([][]byte, hotSet)
	for i := range hot {
		hot[i] = platoondRequest(freshSeed(), platoondAttacks[i%len(platoondAttacks)])
	}
	// Fresh scenarios cycle through the attacks, so every run misses on
	// the same mix of engine work.
	fresh := 0
	freshBody := func() []byte {
		fresh++
		return platoondRequest(freshSeed(), platoondAttacks[fresh%len(platoondAttacks)])
	}
	// arrival draws one arrival of the mix, due at due.
	arrival := func(due time.Duration) []request {
		switch u := rng.Float64(); {
		case u < pairFrac:
			body := freshBody()
			return []request{{body, due}, {body, due}}
		case u < pairFrac+freshFrac:
			return []request{{freshBody(), due}}
		default:
			return []request{{hot[rng.Intn(hotSet)], due}}
		}
	}
	var phases [3][]request
	for n := int(probeShare * d.Seconds() * capacityRPS); len(phases[probe]) < n; {
		phases[probe] = append(phases[probe], arrival(0)...)
	}
	open, rates := openShare*d.Seconds(), [3]float64{base: baseRPS, peak: peakRPS}
	for _, ph := range []int{base, peak} {
		rate := rates[ph]
		for t := rng.ExpFloat64() / rate; t < open; t += rng.ExpFloat64() / rate {
			phases[ph] = append(phases[ph], arrival(time.Duration(t*float64(time.Second)))...)
		}
	}
	return hot, phases
}

func setupPlatoond(cfg config, traced bool) (session, error) {
	hot, phases := platoondInputs(cfg.seed, cfg.seconds)
	spill, err := os.MkdirTemp(cfg.scratch, "platoond-spill-")
	if err != nil {
		return nil, err
	}
	scfg := service.Config{
		Now:              time.Now,
		CacheEntries:     cacheEntries,
		SpillDir:         spill,
		MaxInflight:      workers,
		TimelineInterval: -1,
		TraceCapacity:    -1,
	}
	if traced {
		scfg.TimelineInterval = time.Second
		scfg.TraceCapacity = hotSet + len(phases[probe]) + len(phases[base]) + len(phases[peak])
		scfg.TraceSample = 1
	}
	srv, err := service.NewServer(scfg)
	if err != nil {
		os.RemoveAll(spill)
		return nil, err
	}
	s := &platoondSession{
		traced: traced,
		spill:  spill,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
			Timeout:   time.Minute,
		},
		phases: phases,
		bodies: map[string][]byte{},
	}
	// Warm-up: request every hot scenario once, closed loop over both
	// connections, so the timed phase starts with a full cache.
	warm := make([]request, hotSet)
	for i := range warm {
		warm[i].body = hot[i]
	}
	out := make([]outcome, hotSet)
	s.closedLoop(warm, out)
	for i := range out {
		if !out[i].ok() {
			s.close()
			return nil, fmt.Errorf("warm-up request %d: status %d, %v", i, out[i].status, out[i].err)
		}
	}
	return s, nil
}

// send posts one request and records its outcome, timing it from due.
func (s *platoondSession) send(o *outcome, body []byte, due time.Time) {
	resp, err := s.client.Post(s.ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(due)
	o.status, o.err = resp.StatusCode, err
	o.cache, o.digest = resp.Header.Get("X-Platoond-Cache"), resp.Header.Get("X-Platoond-Digest")
	o.sum = sha256.Sum256(got)
	if o.ok() {
		s.bodyMu.Lock()
		if _, seen := s.bodies[o.digest]; !seen {
			s.bodies[o.digest] = got
		}
		s.bodyMu.Unlock()
	}
}

// closedLoop sends reqs from one goroutine per connection, each sending
// its next request as soon as its previous one is answered, and returns
// the wall time. Latency is timed from the send.
func (s *platoondSession) closedLoop(reqs []request, out []outcome) time.Duration {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				s.send(&out[i], reqs[i].body, time.Now())
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends reqs on their schedule, each from its own goroutine,
// regardless of how many are still outstanding, and waits for all.
func (s *platoondSession) openLoop(reqs []request, out []outcome) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(reqs[i].due)
		sleepUntil(due)
		sem <- struct{}{}
		out[i].lag = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.send(&out[i], reqs[i].body, due)
			<-sem
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sleepUntil blocks the calling (locked) OS thread until t. The
// runtime's timers round short waits up to the next millisecond, which
// would add up to a millisecond of generator lag to every request;
// nanosleep is accurate to about a tenth of that.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop re-checks the deadline
	}
}

// run plays the probe and both open-loop phases; their requests,
// generated at set-up from the run length, already span it.
func (s *platoondSession) run(time.Duration) (*pass, error) {
	before, err := s.counters()
	if err != nil {
		return nil, err
	}
	runStart := time.Now()
	p := &pass{}
	for ph := range s.phases {
		s.out[ph] = make([]outcome, len(s.phases[ph]))
		if ph == probe {
			s.walls[ph] = s.closedLoop(s.phases[ph], s.out[ph])
		} else {
			s.walls[ph] = s.openLoop(s.phases[ph], s.out[ph])
		}
		p.wall += s.walls[ph]
		p.ops += len(s.out[ph])
	}
	p.attempted = p.ops

	capacity := float64(len(s.out[probe])) / s.walls[probe].Seconds()
	bt, pt := summarize(latenciesMS(s.out[base]), 0.99), summarize(latenciesMS(s.out[peak]), 0.99)
	p.notes = append(p.notes,
		fmt.Sprintf("probe: %d requests closed loop on %d connections, %.1f req/s", len(s.out[probe]), workers, capacity),
		fmt.Sprintf("base %.0f/s latency ms: %v", baseRPS, bt),
		fmt.Sprintf("peak %.0f/s latency ms: %v", peakRPS, pt))
	if bt.Q < 0.99 || pt.Q < 0.99 {
		p.notes = append(p.notes, "WARNING: a phase is too short for p99; the highest supported percentile is reported")
	}
	var lags, hit, miss []float64
	hits := 0
	for ph := range s.out {
		for i := range s.out[ph] {
			o := &s.out[ph][i]
			switch o.cache {
			case "hit":
				hit = append(hit, float64(o.latency)/1e6)
				hits++
			case "spill":
				hits++
			case "miss":
				miss = append(miss, float64(o.latency)/1e6)
			}
			if ph != probe { // a closed loop has no schedule to lag behind
				lags = append(lags, float64(o.lag)/1e6)
			}
		}
	}
	lag := summarize(lags, 0.99)
	p.notes = append(p.notes, fmt.Sprintf("generator lag ms: %v", lag))
	p.e2e = map[string]float64{
		"runs_per_s":  capacity,
		"p50_ms":      bt.P50,
		"p99_ms":      bt.Value,
		"peak_p99_ms": pt.Value,
	}
	p.layer = map[string]float64{"loadgen.lag_p99_ms": lag.Value}
	if !s.traced {
		return p, nil
	}

	after, err := s.counters()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	ht, mt := summarize(hit, 0.99), summarize(miss, 0.99)
	p.layer["service.hit_ms.p50"], p.layer["service.hit_ms.p99"] = ht.P50, ht.Value
	p.layer["service.miss_ms.p50"], p.layer["service.miss_ms.p99"] = mt.P50, mt.Value
	p.layer["service.hit_frac"] = float64(hits) / float64(p.ops)
	p.layer["service.dedup"] = delta("platoond_service_dedup_coalesced")
	p.layer["service.spill_hits"] = delta("platoond_service_cache_spill_hits")
	p.layer["service.evictions"] = delta("platoond_service_cache_evictions")
	p.layer["service.spill_writes"] = delta("platoond_service_spill_writes")
	p.layer["service.rejected"] = delta("platoond_service_admission_rejects") + delta("platoond_service_quota_rejects")

	stages, err := s.stageDurations(runStart)
	if err != nil {
		return nil, err
	}
	for _, st := range []struct {
		stage, metric string
		scale         float64 // nanoseconds per reported unit
	}{
		{"decode", "service.decode_us", 1e3},
		{"cache_lookup", "service.cache_lookup_us", 1e3},
		{"queue_wait", "service.queue_wait_ms", 1e6},
		{"engine", "service.engine_ms", 1e6},
		{"cache_put", "service.cache_put_us", 1e3},
		{"serve", "service.serve_us", 1e3},
	} {
		xs := stages[st.stage]
		for i := range xs {
			xs[i] /= st.scale
		}
		t := summarize(xs, 0.99)
		p.layer[st.metric+".p50"], p.layer[st.metric+".p99"] = t.P50, t.Value
	}
	return p, nil
}

// latenciesMS lists every request's latency in milliseconds; a failed
// or refused request counts as infinitely late, so it misses any limit.
func latenciesMS(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for i := range out {
		xs[i] = math.Inf(1)
		if out[i].ok() {
			xs[i] = float64(out[i].latency) / 1e6
		}
	}
	return xs
}

// goodput counts requests served within limit; failed and refused
// requests never count.
func goodput(out []outcome, correct func(*outcome) bool, limit time.Duration) int {
	n := 0
	for i := range out {
		if out[i].ok() && out[i].latency <= limit && correct(&out[i]) {
			n++
		}
	}
	return n
}

// counters reads the server's /metrics exposition into name → value.
func (s *platoondSession) counters() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// stageDurations fetches GET /v1/traces and groups the stage durations
// (nanoseconds) of every request that started at or after since.
func (s *platoondSession) stageDurations(since time.Time) (map[string][]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Traces []service.RequestTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /v1/traces: %w", err)
	}
	out := map[string][]float64{}
	for _, t := range doc.Traces {
		if t.StartNS < since.UnixNano() {
			continue
		}
		for _, st := range t.Stages {
			out[st.Name] = append(out[st.Name], float64(st.DurNS))
		}
	}
	return out, nil
}

// verify checks every served body: each request got the artifact of its
// own digest, every body served for one digest is identical, and that
// body is byte-identical to a direct library run of the same request.
func (s *platoondSession) verify(p *pass) error {
	type distinct struct {
		opts scenario.Options
		ok   bool
	}
	byDigest := map[string]*distinct{}
	var order []string
	want := map[string]string{} // request body → expected digest
	for ph := range s.phases {
		for _, rq := range s.phases[ph] {
			if _, seen := want[string(rq.body)]; seen {
				continue
			}
			var nr service.RunRequest
			if err := json.Unmarshal(rq.body, &nr); err != nil {
				return err
			}
			if err := nr.Normalize(); err != nil {
				return err
			}
			d, err := service.Digest(&nr)
			if err != nil {
				return err
			}
			want[string(rq.body)] = d
			if byDigest[d] == nil {
				opts, err := nr.Options(1, 1, nil)
				if err != nil {
					return err
				}
				byDigest[d] = &distinct{opts: opts}
				order = append(order, d)
			}
		}
	}
	optsList := make([]scenario.Options, len(order))
	for i, d := range order {
		optsList[i] = byDigest[d].opts
	}
	rep := scenario.SweepReport(context.Background(), optsList, scenario.SweepConfig{Workers: workers})
	for i, d := range order {
		if rep.Errors[i] != nil {
			return fmt.Errorf("direct run of %.12s: %w", d, rep.Errors[i])
		}
		direct, err := json.Marshal(rep.Results[i])
		if err != nil {
			return err
		}
		served, ok := s.bodies[d]
		byDigest[d].ok = ok && bytes.Equal(served, direct)
		if ok && !byDigest[d].ok {
			p.failf("digest %.12s: served body differs from a direct scenario.Run", d)
		}
	}

	correct := func(o *outcome) bool {
		b, ok := s.bodies[o.digest]
		return ok && byDigest[o.digest] != nil && byDigest[o.digest].ok && o.sum == sha256.Sum256(b)
	}
	for ph := range s.phases {
		for i, rq := range s.phases[ph] {
			o := &s.out[ph][i]
			switch {
			case o.err != nil:
				p.failf("request %d: %v", i, o.err)
			case !o.ok():
				p.failf("request %d: status %d", i, o.status)
			case o.digest != want[string(rq.body)]:
				p.failf("request %d: served digest %.12s, want %.12s", i, o.digest, want[string(rq.body)])
			case !correct(o):
				p.failf("request %d: body does not match the direct run", i)
			default:
				p.digests = append(p.digests, hex.EncodeToString(o.sum[:]))
				continue
			}
			p.digests = append(p.digests, "")
		}
	}
	// Goodput comes from the probe, which runs at the service's own
	// saturation: an open-loop phase could never exceed its offered rate,
	// so a speed-up would not show.
	p.e2e["peak_goodput_rps"] = float64(goodput(s.out[probe], correct, latencyLimit)) / s.walls[probe].Seconds()
	return nil
}

func (s *platoondSession) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	os.RemoveAll(s.spill)
}
